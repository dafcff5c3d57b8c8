package eval

import (
	"encoding/binary"
	"fmt"
	"math"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/canon"
	"cohpredict/internal/core"
	"cohpredict/internal/metrics"
)

// Engine checkpoint/restore. A Snapshot captures everything an engine's
// future behaviour depends on — scheme, machine, predictor-table entry
// states, and the accumulated confusion tallies — so a killed process can
// resume mid-trace and produce byte-identical predictions and stats from
// that point on (the serving layer's kill/restore path).
//
// The wire form follows the canonical-encoding rules of internal/canon:
// an 8-byte magic, then uvarints only, with table entries sorted by key
// and delta-coded. Decode also rejects unsorted keys, so
// Encode(Decode(b)) == b for every accepted b, and it never panics.

// snapMagic identifies the snapshot wire format (and its version).
const snapMagic = "COHSNAP1"

// maxSnapExtra bounds the opaque Extra section.
const maxSnapExtra = 1 << 24

// Snapshot is the checkpointed state of one Engine, plus an opaque Extra
// section for the layer above (internal/serve stores session tuning and
// idempotency state there).
type Snapshot struct {
	Scheme  core.Scheme
	Machine core.Machine
	Events  uint64
	Conf    metrics.Confusion
	Entries []core.EntryState
	Extra   []byte
}

// Snapshot captures the engine's current state. The engine must be
// quiescent (no concurrent Step).
func (e *Engine) Snapshot() (*Snapshot, error) {
	entries, err := core.ExportTable(e.table)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Scheme:  e.scheme,
		Machine: e.machine,
		Events:  e.events,
		Conf:    e.conf,
		Entries: entries,
	}, nil
}

// NewEngineFromSnapshot rebuilds an engine that behaves exactly as the
// snapshotted one would: same table contents, same tallies.
func NewEngineFromSnapshot(s *Snapshot) (*Engine, error) {
	if err := s.Scheme.Validate(); err != nil {
		return nil, err
	}
	if err := validateSnapMachine(s.Machine); err != nil {
		return nil, err
	}
	e := NewEngine(s.Scheme, s.Machine)
	if err := core.ImportTable(e.table, s.Entries); err != nil {
		return nil, err
	}
	e.events = s.Events
	e.conf = s.Conf
	return e, nil
}

func validateSnapMachine(m core.Machine) error {
	if m.Nodes <= 0 || m.Nodes > bitmap.MaxNodes {
		return fmt.Errorf("eval: snapshot node count %d out of range [1,%d]", m.Nodes, bitmap.MaxNodes)
	}
	if m.LineBytes <= 0 || m.LineBytes&(m.LineBytes-1) != 0 || m.LineBytes > 1<<20 {
		return fmt.Errorf("eval: snapshot line size %d is not a power of two in [1,%d]", m.LineBytes, 1<<20)
	}
	return nil
}

// EncodeSnapshot serializes s into the canonical wire form.
func EncodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 64+16*len(s.Entries)+len(s.Extra))
	b = append(b, snapMagic...)
	for _, v := range []uint64{
		uint64(s.Scheme.Fn), uint64(s.Scheme.Depth), uint64(s.Scheme.Update),
		boolWord(s.Scheme.Index.UsePID), uint64(s.Scheme.Index.PCBits),
		boolWord(s.Scheme.Index.UseDir), uint64(s.Scheme.Index.AddrBits),
		uint64(s.Machine.Nodes), uint64(s.Machine.LineBytes),
		s.Events,
		s.Conf.TP, s.Conf.FP, s.Conf.TN, s.Conf.FN,
	} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Entries)))
	prev := uint64(0)
	for i := range s.Entries {
		e := &s.Entries[i]
		if i == 0 {
			b = binary.AppendUvarint(b, e.Key)
		} else {
			b = binary.AppendUvarint(b, e.Key-prev) // >0 for sorted, deduped keys
		}
		prev = e.Key
		b = binary.AppendUvarint(b, uint64(len(e.Words)))
		for _, w := range e.Words {
			b = binary.AppendUvarint(b, w)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Extra)))
	b = append(b, s.Extra...)
	return b
}

// DecodeSnapshot parses the canonical wire form (see internal/canon). It
// validates structure, scheme, machine, and tally consistency; per-entry
// word validation happens in NewEngineFromSnapshot (via core.ImportTable),
// which knows the table shape.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := canon.NewReader(data)
	r.Magic(snapMagic)
	s := &Snapshot{}
	s.Scheme.Fn = core.Function(r.Uvarint())
	s.Scheme.Depth = int(r.Uvarint())
	s.Scheme.Update = core.UpdateMode(r.Uvarint())
	s.Scheme.Index.UsePID = r.Bool()
	s.Scheme.Index.PCBits = int(r.Uvarint())
	s.Scheme.Index.UseDir = r.Bool()
	s.Scheme.Index.AddrBits = int(r.Uvarint())
	s.Machine.Nodes = int(r.Uvarint())
	s.Machine.LineBytes = int(r.Uvarint())
	s.Events = r.Uvarint()
	s.Conf.TP = r.Uvarint()
	s.Conf.FP = r.Uvarint()
	s.Conf.TN = r.Uvarint()
	s.Conf.FN = r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("eval: snapshot header: %w", err)
	}
	if err := s.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("eval: snapshot scheme: %w", err)
	}
	if err := validateSnapMachine(s.Machine); err != nil {
		return nil, err
	}
	// AddBitmaps scores exactly Nodes decisions per event, so the tallies
	// must account for Events*Nodes decisions in total.
	nodes := uint64(s.Machine.Nodes)
	if s.Events > math.MaxUint64/nodes {
		return nil, fmt.Errorf("eval: snapshot event count %d overflows the decision total", s.Events)
	}
	if s.Conf.TP+s.Conf.FP+s.Conf.TN+s.Conf.FN != s.Events*nodes {
		return nil, fmt.Errorf("eval: snapshot tallies do not sum to events*nodes")
	}

	// Every entry needs at least 2 bytes (key + word count).
	n := r.Count(2, math.MaxUint64)
	s.Entries = make([]core.EntryState, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		key := r.Uvarint()
		if i > 0 && r.Err() == nil {
			if key == 0 {
				return nil, fmt.Errorf("eval: snapshot keys are not strictly increasing")
			}
			if prev > math.MaxUint64-key {
				return nil, fmt.Errorf("eval: snapshot key delta overflows")
			}
			key += prev
		}
		words := make([]uint64, r.Count(1, math.MaxUint64))
		for j := range words {
			words[j] = r.Uvarint()
		}
		s.Entries = append(s.Entries, core.EntryState{Key: key, Words: words})
		prev = key
	}
	if x := r.Bytes(maxSnapExtra); len(x) > 0 {
		s.Extra = append([]byte(nil), x...)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("eval: snapshot: %w", err)
	}
	return s, nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
