package service

import (
	"fmt"

	"pmuoutage"
	"pmuoutage/internal/wire"
)

// Stream-ingest validation errors. Minted once at package level so the
// zero-allocation admission path below returns bare sentinels.
var (
	errNilFrame   = fmt.Errorf("%w: nil frame", pmuoutage.ErrBadSample)
	errFrameBuses = fmt.Errorf("%w: frame bus count differs from the serving grid", pmuoutage.ErrBadSample)
)

// StreamIngest admits one decoded wire frame into the named shard's
// streaming monitor — the collector path: no HTTP, no JSON, no copy.
// On a nil return the service owns the frame and recycles it after
// scoring; on any error the caller keeps ownership (recycle or retry).
// Admission is non-blocking: a full stream queue sheds the frame with
// ErrOverloaded exactly like the detect path sheds batches. Scoring is
// asynchronous; confirmed events surface through Config.OnEvent. The
// monitor behind this is the same one Ingest drives, so detection
// events are byte-identical across transports.
//
//gridlint:zeroalloc
func (s *Service) StreamIngest(shardName string, f *wire.Frame) error {
	if f == nil {
		return errNilFrame
	}
	sh, err := s.shard(shardName)
	if err != nil {
		return err
	}
	st := sh.counters()
	if err := sh.availErr(); err != nil {
		st.Unavailable.Add(1)
		return err
	}
	if want := sh.buses.Load(); want != 0 && int32(f.N()) != want {
		return errFrameBuses
	}
	select {
	case sh.streamq <- f:
		st.Frames(IngestStream).Inc()
		return nil
	default:
		st.Shed.Add(1)
		return ErrOverloaded
	}
}
