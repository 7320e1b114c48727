package mat

import (
	"fmt"
	"math"
)

// Vector helpers operate on plain []float64 slices; the detector passes
// phasor samples around as slices, so free functions avoid wrapper churn.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow/underflow for extreme values.
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 { //gridlint:ignore floatcmp scaled-norm accumulation skips exact zeros to keep scale well-defined
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 { //gridlint:ignore floatcmp scale is exactly zero iff every element was exactly zero
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// AxpyTo stores a*x + y into dst and returns it. dst may alias y.
func AxpyTo(dst []float64, a float64, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mat: AxpyTo length mismatch")
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
	return dst
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// AddVec returns a+b as a new slice.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: AddVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// ScaleVec returns s*v as a new slice.
func ScaleVec(s float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 if len(v) < 2.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}
