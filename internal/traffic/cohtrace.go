// Package traffic is the production-traffic layer around predserve: a
// seeded open-loop load generator (Poisson / bursty / diurnal arrival
// processes over session-count, session-lifetime, and event-mix knobs),
// an SLO report distilled from client-side timings and the server's
// flight histograms, and COHTRACE1 — a compact on-disk trace format that
// turns any recorded incident into a deterministic regression test:
// `predserve -record file.cohtrace` captures the accepted event stream,
// `predload -replay file.cohtrace` reproduces it (same sessions, same
// batching, same request IDs), and the served predictions and confusion
// come back byte-identical at any shard count.
//
// COHTRACE1 follows the canonical-encoding rules of internal/canon:
//
//	file    := magic count:uvarint record*count
//	magic   := "COHTRACE1"                                (9 bytes)
//	record  := kind payload
//	kind 1  := session: seq scheme:string nodes line_bytes shards
//	kind 2  := request: session arrival_ns id:string count:uvarint event*count
//	string  := len:uvarint byte*len
//	event   := pid pc dir addr inv_readers has_prev [prev_pid prev_pc] future_readers
//
// Integers are minimal uvarints, strings are raw bytes behind a bounded
// length prefix, and the event field group is COHWIRE1's
// (canon.AppendEvent / canon.Reader.Event). The decoders are canonical —
// Encode(Decode(b)) == b for every accepted input b, the property the
// fuzz targets pin. The file decoder additionally enforces the
// cross-record invariants the recorder guarantees: session records carry
// consecutive sequence numbers in order of appearance, every request
// names a previously-declared session, arrival offsets never decrease,
// and event fields fit the owning session's machine.
package traffic

import (
	"encoding/binary"
	"errors"
	"math"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/canon"
	"cohpredict/internal/trace"
)

// traceMagic identifies the trace format (and its version).
const traceMagic = "COHTRACE1"

// Record kinds. A request fed to a decoder expecting a session (or a
// kind outside the enum) is rejected, never mis-decoded.
const (
	TraceKindSession = 1
	TraceKindRequest = 2
)

const (
	// maxTraceString bounds the scheme and request-ID strings (the serve
	// layer's idempotency keys observe the same 128-byte cap).
	maxTraceString = 128
	// maxTraceBatch bounds one request's event count, matching the serve
	// layer's batch limit (serve.MaxBatchEvents).
	maxTraceBatch = 1 << 16
	// maxTraceLineBytes bounds a session's cache-line size.
	maxTraceLineBytes = 1 << 20
	// maxTraceShards matches the serve layer's shard-pool cap.
	maxTraceShards = 64
	// minTraceRecordBytes is the smallest record (an empty-id request
	// header); it bounds the declared record count before allocation.
	minTraceRecordBytes = 5
)

// Decode failures specific to COHTRACE1; the shared ones (magic,
// truncation, non-minimal varints, counts, string lengths, has_prev,
// event ranges, trailing bytes) are internal/canon's sentinels. Callers
// wrap them with file or request context.
var (
	errTraceKind       = errors.New("traffic: trace record kind unknown")
	errTraceConfig     = errors.New("traffic: trace session config out of range")
	errTraceSessionSeq = errors.New("traffic: trace session records out of sequence")
	errTraceSessionRef = errors.New("traffic: trace request names an undeclared session")
	errTraceArrival    = errors.New("traffic: trace arrival offsets decrease")
)

// TraceSession is a kind-1 record: a session came live. Seq is the
// session's position in the trace (0-based, in creation order) — request
// records refer to it, so replay does not depend on server-assigned IDs.
type TraceSession struct {
	Seq       uint64
	Scheme    string
	Nodes     int
	LineBytes int
	Shards    int
}

// TraceRequest is a kind-2 record: one accepted event batch. ArrivalNS
// is the offset from the start of the recording (non-decreasing across
// the file); ID is the client's X-Request-ID as the server saw it
// (possibly empty); Events is the batch exactly as trained.
type TraceRequest struct {
	Session   uint64
	ArrivalNS uint64
	ID        string
	Events    []trace.Event
}

// TraceRecord is one COHTRACE1 record; Kind selects which half is live.
type TraceRecord struct {
	Kind    int
	Session TraceSession // valid when Kind == TraceKindSession
	Request TraceRequest // valid when Kind == TraceKindRequest
}

// appendTraceString encodes a length-prefixed string.
//
//predlint:hotpath
func appendTraceString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendSessionRecord encodes a kind-1 record.
//
//predlint:hotpath
func appendSessionRecord(dst []byte, seq uint64, scheme string, nodes, lineBytes, shards int) []byte {
	dst = binary.AppendUvarint(dst, TraceKindSession)
	dst = binary.AppendUvarint(dst, seq)
	dst = appendTraceString(dst, scheme)
	dst = binary.AppendUvarint(dst, uint64(nodes))
	dst = binary.AppendUvarint(dst, uint64(lineBytes))
	return binary.AppendUvarint(dst, uint64(shards))
}

// appendRequestRecord encodes a kind-2 record. It is the recorder's
// append kernel — one call per accepted batch on the serve path — so it
// takes fields directly (no record struct to escape) and only ever
// appends.
//
//predlint:hotpath
func appendRequestRecord(dst []byte, sess, arrivalNS uint64, id string, evs []trace.Event) []byte {
	dst = binary.AppendUvarint(dst, TraceKindRequest)
	dst = binary.AppendUvarint(dst, sess)
	dst = binary.AppendUvarint(dst, arrivalNS)
	dst = appendTraceString(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		dst = canon.AppendEvent(dst, ev.PID, ev.PC, ev.Dir, ev.Addr, uint64(ev.InvReaders),
			ev.HasPrev, ev.PrevPID, ev.PrevPC, uint64(ev.FutureReaders))
	}
	return dst
}

// AppendTraceRecord appends the canonical encoding of one record to dst
// and returns the extended slice — the encoder the round-trip proofs
// re-encode with.
func AppendTraceRecord(dst []byte, rec *TraceRecord) []byte {
	if rec.Kind == TraceKindSession {
		s := &rec.Session
		return appendSessionRecord(dst, s.Seq, s.Scheme, s.Nodes, s.LineBytes, s.Shards)
	}
	r := &rec.Request
	return appendRequestRecord(dst, r.Session, r.ArrivalNS, r.ID, r.Events)
}

// EncodeTraceFile encodes a full COHTRACE1 file: magic, record count,
// records in order.
func EncodeTraceFile(recs []TraceRecord) []byte {
	dst := append([]byte(nil), traceMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = AppendTraceRecord(dst, &recs[i])
	}
	return dst
}

// readTraceRecord decodes one record from r. Event fields are checked
// against the 64-node bitmap cap; the file decoder re-checks them against
// the owning session's machine.
func readTraceRecord(r *canon.Reader) (rec TraceRecord, err error) {
	switch kind := r.Uvarint(); {
	case r.Err() != nil:
		return rec, r.Err()
	case kind == TraceKindSession:
		rec.Kind = TraceKindSession
		s := &rec.Session
		s.Seq = r.Uvarint()
		s.Scheme = string(r.Bytes(maxTraceString))
		nodes := r.Uvarint()
		lineBytes := r.Uvarint()
		shards := r.Uvarint()
		if r.Err() != nil {
			return rec, r.Err()
		}
		if s.Scheme == "" {
			return rec, canon.ErrLength
		}
		if nodes == 0 || nodes > bitmap.MaxNodes ||
			lineBytes == 0 || lineBytes > maxTraceLineBytes || lineBytes&(lineBytes-1) != 0 ||
			shards == 0 || shards > maxTraceShards {
			return rec, errTraceConfig
		}
		s.Nodes = int(nodes)
		s.LineBytes = int(lineBytes)
		s.Shards = int(shards)
	case kind == TraceKindRequest:
		rec.Kind = TraceKindRequest
		q := &rec.Request
		q.Session = r.Uvarint()
		q.ArrivalNS = r.Uvarint()
		q.ID = string(r.Bytes(maxTraceString))
		count := r.Count(canon.MinEventBytes, maxTraceBatch)
		if r.Err() == nil && count == 0 {
			return rec, canon.ErrCount
		}
		q.Events = make([]trace.Event, 0, count)
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			q.Events = append(q.Events, r.Event(bitmap.MaxNodes))
		}
	default:
		return rec, errTraceKind
	}
	return rec, r.Err()
}

// DecodeTraceRecord decodes one record from the front of data, returning
// the record and the number of bytes consumed. Validation here is
// record-local (field ranges against the 64-node bitmap cap; the file
// decoder re-checks events against the owning session's machine). The
// decoder never panics, and accepts only the canonical form:
// AppendTraceRecord over the result reproduces data[:n] byte for byte.
func DecodeTraceRecord(data []byte) (rec TraceRecord, n int, err error) {
	r := canon.NewReader(data)
	if rec, err = readTraceRecord(&r); err != nil {
		return rec, 0, err
	}
	return rec, len(data) - r.Len(), nil
}

// DecodeTraceFile decodes a full COHTRACE1 file, enforcing both the
// per-record canonical form and the cross-record invariants: consecutive
// session sequence numbers, declared-session references, non-decreasing
// arrivals, and event fields within each owning session's machine. It
// never panics; EncodeTraceFile over the result reproduces the input
// exactly.
func DecodeTraceFile(data []byte) ([]TraceRecord, error) {
	r := canon.NewReader(data)
	r.Magic(traceMagic)
	count := r.Count(minTraceRecordBytes, math.MaxUint64)
	if r.Err() != nil {
		return nil, r.Err()
	}
	recs := make([]TraceRecord, 0, count)
	var sessions []int // nodes per declared seq
	var lastArrival uint64
	for i := uint64(0); i < count; i++ {
		rec, err := readTraceRecord(&r)
		if err != nil {
			return nil, err
		}
		switch rec.Kind {
		case TraceKindSession:
			if rec.Session.Seq != uint64(len(sessions)) {
				return nil, errTraceSessionSeq
			}
			sessions = append(sessions, rec.Session.Nodes)
		case TraceKindRequest:
			q := &rec.Request
			if q.Session >= uint64(len(sessions)) {
				return nil, errTraceSessionRef
			}
			if q.ArrivalNS < lastArrival {
				return nil, errTraceArrival
			}
			lastArrival = q.ArrivalNS
			for j := range q.Events {
				if !canon.EventFits(&q.Events[j], sessions[q.Session]) {
					return nil, canon.ErrRange
				}
			}
		}
		recs = append(recs, rec)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}

// IsTraceFile reports whether data begins with the COHTRACE1 magic.
func IsTraceFile(data []byte) bool {
	return len(data) >= len(traceMagic) && string(data[:len(traceMagic)]) == traceMagic
}
