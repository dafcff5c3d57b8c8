package serve

// COHWIRE1 — the service's binary wire protocol for event posts and
// prediction replies, negotiated per request via Content-Type / Accept
// ("application/x-cohwire"); the JSON API remains the debugging and
// compatibility surface. Grammar:
//
//	frame := magic kind payload
//	magic := "COHWIRE1"                     (8 bytes)
//	kind  := uvarint                        (1 = event batch, 2 = reply)
//	batch := count:uvarint event*count
//	event := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//	reply := count:uvarint prediction*count
//
// The encoding rules are internal/canon's (minimal uvarints, a 0/1
// has_prev, counts bounded by the input, no trailing bytes), and the event
// field group is canon.AppendEvent / canon.Reader.Event, shared with
// COHTRACE1. The decoders are canonical: Encode(Decode(b)) == b for every
// accepted frame b, the property the round-trip fuzz targets pin.
//
// The codec kernels are the serving hot path — one frame per HTTP request,
// one field group per event at a target of a million events per second —
// so they are //predlint:hotpath: no allocation (decoders append into
// caller-owned buffers, encoders append in place), no fmt (errors are
// static sentinels; the HTTP layer adds request context), no interface
// boxing.

import (
	"encoding/binary"
	"errors"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/canon"
	"cohpredict/internal/trace"
)

// ContentTypeWire is the negotiated media type of a COHWIRE1 frame.
const ContentTypeWire = "application/x-cohwire"

// wireMagic identifies the wire format (and its version).
const wireMagic = "COHWIRE1"

// Frame kinds. A batch frame fed to the reply decoder (or vice versa) is
// rejected, so a misrouted body fails loudly instead of mis-decoding.
const (
	wireKindBatch = 1
	wireKindReply = 2
)

// Decode failures specific to COHWIRE1; the shared ones (magic,
// truncation, non-minimal varints, counts, has_prev, ranges, trailing
// bytes) are internal/canon's sentinels. Handlers add request context.
var (
	errWireKind  = errors.New("serve: wire frame kind unknown")
	errWireNodes = errors.New("serve: wire decoder node count out of range")
)

// readWireHeader consumes the magic and checks the frame kind.
//
//predlint:hotpath
func readWireHeader(r *canon.Reader, kind uint64) error {
	r.Magic(wireMagic)
	if k := r.Uvarint(); r.Err() == nil && k != kind {
		return errWireKind
	}
	return r.Err()
}

// AppendWireBatch appends the COHWIRE1 batch frame for evs to dst and
// returns the extended slice. It is the canonical encoder the round-trip
// proofs (and the server-side tests) re-encode with.
//
//predlint:hotpath
func AppendWireBatch(dst []byte, evs []trace.Event) []byte {
	dst = append(dst, wireMagic...)
	dst = binary.AppendUvarint(dst, wireKindBatch)
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		dst = canon.AppendEvent(dst, ev.PID, ev.PC, ev.Dir, ev.Addr, uint64(ev.InvReaders),
			ev.HasPrev, ev.PrevPID, ev.PrevPC, uint64(ev.FutureReaders))
	}
	return dst
}

// AppendWireEvents appends the batch frame for API-form events (the
// client-side encoder; field layout is identical to AppendWireBatch).
//
//predlint:hotpath
func AppendWireEvents(dst []byte, evs []EventRequest) []byte {
	dst = append(dst, wireMagic...)
	dst = binary.AppendUvarint(dst, wireKindBatch)
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		r := &evs[i]
		dst = canon.AppendEvent(dst, r.PID, r.PC, r.Dir, r.Addr, r.InvReaders,
			r.HasPrev, r.PrevPID, r.PrevPC, r.FutureReaders)
	}
	return dst
}

// DecodeWireBatchInto decodes a COHWIRE1 batch frame for an n-node
// machine, appending the validated events to dst (pass a pooled slice at
// length 0 to decode without allocating once its capacity has warmed up)
// and returning the extended slice. Validation matches the JSON decoder
// exactly: in-range pids and dirs, bitmaps confined to the machine,
// prev fields only under has_prev. The decoder never panics, and accepts
// only the canonical form — AppendWireBatch over the result reproduces
// the input byte for byte.
//
//predlint:hotpath
func DecodeWireBatchInto(data []byte, nodes int, dst []trace.Event) ([]trace.Event, error) {
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return dst, errWireNodes
	}
	r := canon.NewReader(data)
	if err := readWireHeader(&r, wireKindBatch); err != nil {
		return dst, err
	}
	n := r.Count(canon.MinEventBytes, MaxBatchEvents)
	for i := uint64(0); i < n; i++ {
		ev := r.Event(nodes)
		if r.Err() != nil {
			return dst, r.Err()
		}
		dst = append(dst, ev)
	}
	return dst, r.Done()
}

// DecodeWireBatch is DecodeWireBatchInto with a fresh destination (the
// convenience form tests and fuzz targets use).
func DecodeWireBatch(data []byte, nodes int) ([]trace.Event, error) {
	evs, err := DecodeWireBatchInto(data, nodes, nil)
	if err != nil {
		return nil, err
	}
	if evs == nil {
		evs = []trace.Event{}
	}
	return evs, nil
}

// AppendWireReply appends the COHWIRE1 reply frame carrying one predicted
// sharing bitmap per event, in request order.
//
//predlint:hotpath
func AppendWireReply(dst []byte, preds []bitmap.Bitmap) []byte {
	dst = append(dst, wireMagic...)
	dst = binary.AppendUvarint(dst, wireKindReply)
	dst = binary.AppendUvarint(dst, uint64(len(preds)))
	for _, p := range preds {
		dst = binary.AppendUvarint(dst, uint64(p))
	}
	return dst
}

// DecodeWireReplyInto decodes a reply frame, appending the predictions to
// dst. Like the batch decoder it is total (never panics) and canonical
// (AppendWireReply over the result reproduces the input exactly).
//
//predlint:hotpath
func DecodeWireReplyInto(data []byte, dst []bitmap.Bitmap) ([]bitmap.Bitmap, error) {
	r := canon.NewReader(data)
	if err := readWireHeader(&r, wireKindReply); err != nil {
		return dst, err
	}
	n := r.Count(1, MaxBatchEvents)
	for i := uint64(0); i < n; i++ {
		p := r.Uvarint()
		if r.Err() != nil {
			return dst, r.Err()
		}
		dst = append(dst, bitmap.Bitmap(p))
	}
	return dst, r.Done()
}

// DecodeWireReply is DecodeWireReplyInto with a fresh destination.
func DecodeWireReply(data []byte) ([]bitmap.Bitmap, error) {
	preds, err := DecodeWireReplyInto(data, nil)
	if err != nil {
		return nil, err
	}
	if preds == nil {
		preds = []bitmap.Bitmap{}
	}
	return preds, nil
}

// IsWireFrame reports whether data begins with the COHWIRE1 magic — the
// cheap sniff clients use to pick a reply decoder.
func IsWireFrame(data []byte) bool {
	return len(data) >= len(wireMagic) && string(data[:len(wireMagic)]) == wireMagic
}
