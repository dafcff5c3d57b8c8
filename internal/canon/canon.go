// Package canon is the canonical-encoding core of the repo's three binary
// formats: COHSNAP1 engine snapshots (internal/eval), COHWIRE1 event and
// reply frames plus the session snapshot's Extra section (internal/serve),
// and COHTRACE1 trace files (internal/traffic). Every format admits exactly
// one encoding per value:
//
//   - integers are minimal-length uvarints (encoders call
//     encoding/binary.AppendUvarint, which only writes the minimal form;
//     Reader rejects any longer one);
//   - booleans are the words 0 and 1, nothing else;
//   - a count is checked against the input left before anything is
//     allocated for it;
//   - trailing bytes are rejected.
//
// Hence Encode(Decode(b)) == b for every accepted b, the property each
// format's fuzz targets pin. The reader and the event codec sit on the
// serving hot path, so they never allocate or format: failures are static
// sentinels, and callers add their own context.
package canon

import (
	"encoding/binary"
	"errors"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/trace"
)

// Decode failures. Reader records the first one and ignores the rest.
var (
	ErrMagic      = errors.New("canon: magic missing")
	ErrTruncated  = errors.New("canon: input truncated or varint overflows 64 bits")
	ErrNonMinimal = errors.New("canon: non-minimal varint")
	ErrBool       = errors.New("canon: non-boolean word")
	ErrCount      = errors.New("canon: count exceeds input or limit")
	ErrLength     = errors.New("canon: length out of range")
	ErrTrailing   = errors.New("canon: trailing bytes")
	ErrRange      = errors.New("canon: event field out of range for the machine")
)

// Reader consumes a canonical encoding from the front of a byte slice.
// The first failure sticks: every later read returns the zero value, so a
// decoder may read a whole field group and check Err once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Magic consumes the format's magic string.
func (r *Reader) Magic(m string) {
	if r.err != nil {
		return
	}
	if len(r.b) < len(m) || string(r.b[:len(m)]) != m {
		r.err = ErrMagic
		return
	}
	r.b = r.b[len(m):]
}

// Uvarint reads one minimal-length uvarint. A varint is minimal exactly
// when it is one byte long or its last (most significant) group is
// non-zero.
//
//predlint:hotpath
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.err = ErrNonMinimal
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bool reads a boolean word: 0 or 1.
//
//predlint:hotpath
func (r *Reader) Bool() bool {
	v := r.Uvarint()
	if v > 1 {
		r.err = ErrBool
		return false
	}
	return v == 1
}

// Count reads the number of items that follow, each at least minBytes
// (≥ 1) long. A count above limit, or one the remaining input cannot
// hold, fails with ErrCount, so callers may allocate for the result.
//
//predlint:hotpath
func (r *Reader) Count(minBytes int, limit uint64) uint64 {
	n := r.Uvarint()
	if n > limit || n > uint64(len(r.b)/minBytes) {
		r.err = ErrCount
		return 0
	}
	return n
}

// Bytes reads a length prefix of at most max and returns that many bytes.
// The result aliases the input.
func (r *Reader) Bytes(max uint64) []byte {
	n := r.Uvarint()
	switch {
	case r.err != nil:
		return nil
	case n > max:
		r.err = ErrLength
		return nil
	case n > uint64(len(r.b)):
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Done ends the decode: it returns the first failure, or ErrTrailing when
// input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}

// The event field group, shared by COHWIRE1 batches and COHTRACE1 request
// records:
//
//	event := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//
// prev_pid and prev_pc are present exactly when has_prev is 1.

// MinEventBytes is the smallest encoded event: seven one-byte words.
// Decoders bound an event count with it before allocating.
const MinEventBytes = 7

// AppendEvent appends one event's field group to dst. It takes the
// fields rather than a *trace.Event so that callers holding another event
// form (the serve API's EventRequest) encode it without a copy.
//
//predlint:hotpath
func AppendEvent(dst []byte, pid int, pc uint64, dir int, addr, inv uint64,
	hasPrev bool, prevPID int, prevPC, future uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(pid))
	dst = binary.AppendUvarint(dst, pc)
	dst = binary.AppendUvarint(dst, uint64(dir))
	dst = binary.AppendUvarint(dst, addr)
	dst = binary.AppendUvarint(dst, inv)
	if hasPrev {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(prevPID))
		dst = binary.AppendUvarint(dst, prevPC)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, future)
}

// Event reads one event field group and checks it with EventFits against
// an n-node machine (1 ≤ nodes ≤ bitmap.MaxNodes). On failure it returns
// the zero Event and Err reports why.
//
//predlint:hotpath
func (r *Reader) Event(nodes int) trace.Event {
	var ev trace.Event
	ev.PID = int(r.Uvarint())
	ev.PC = r.Uvarint()
	ev.Dir = int(r.Uvarint())
	ev.Addr = r.Uvarint()
	ev.InvReaders = bitmap.Bitmap(r.Uvarint())
	if ev.HasPrev = r.Bool(); ev.HasPrev {
		ev.PrevPID = int(r.Uvarint())
		ev.PrevPC = r.Uvarint()
	}
	ev.FutureReaders = bitmap.Bitmap(r.Uvarint())
	if r.err == nil && !EventFits(&ev, nodes) {
		r.err = ErrRange
	}
	if r.err != nil {
		return trace.Event{}
	}
	return ev
}

// EventFits reports whether ev belongs to an n-node machine
// (1 ≤ nodes ≤ bitmap.MaxNodes): pid, dir and, under has_prev, prev_pid
// name a node, and both bitmaps stay inside bitmap.Full(nodes).
//
//predlint:hotpath
func EventFits(ev *trace.Event, nodes int) bool {
	n, full := uint(nodes), bitmap.Full(nodes)
	return uint(ev.PID) < n && uint(ev.Dir) < n && (!ev.HasPrev || uint(ev.PrevPID) < n) &&
		ev.InvReaders&^full == 0 && ev.FutureReaders&^full == 0
}
