package serve

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/canon"
	"cohpredict/internal/core"
)

// Session snapshots ride on the eval snapshot codec: the engine state
// (scheme, machine, tables, tallies) uses eval.EncodeSnapshot's canonical
// wire form, and the serving-layer state — tuning and the idempotency
// cache — is packed into its opaque Extra section by the helpers here,
// under the same internal/canon encoding rules.

// sessionExtraVersion versions the Extra section layout.
const sessionExtraVersion = 1

// SessionTuning is the restorable performance configuration of a session
// (everything in SessionConfig that does not affect results).
type SessionTuning struct {
	Shards     int
	BatchSize  int
	Flush      time.Duration
	MaxPending int
}

type idemItem struct {
	key   string
	preds []bitmap.Bitmap
}

type sessionExtra struct {
	tuning SessionTuning
	idem   []idemItem
}

// extra captures the session's tuning and completed idempotency entries.
// Quiescence guarantees every successfully admitted batch's entry is
// complete before this runs, but a PostKeyed racing the snapshot can
// register its entry and only then fail admission with ErrSnapshotting —
// such an entry is still open (or carries an error) while we hold idemMu
// and is skipped: baking it into the snapshot would make the restored
// session answer a replay of the key with zero predictions and the batch
// would silently never train.
func (s *Session) extra() *sessionExtra {
	x := &sessionExtra{tuning: SessionTuning{
		Shards: s.cfg.Shards, BatchSize: s.cfg.BatchSize, Flush: s.cfg.Flush, MaxPending: s.cfg.MaxPending,
	}}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	for _, k := range s.idemOrder {
		if e := s.idem[k]; e.completed() && e.err == nil {
			x.idem = append(x.idem, idemItem{key: k, preds: e.preds})
		}
	}
	return x
}

// encodeSessionExtra packs x in canonical form (internal/canon): for any
// non-empty b that decodeSessionExtra accepts, encodeSessionExtra of the
// result is b again.
func encodeSessionExtra(x *sessionExtra) []byte {
	b := binary.AppendUvarint(nil, sessionExtraVersion)
	b = binary.AppendUvarint(b, uint64(x.tuning.Shards))
	b = binary.AppendUvarint(b, uint64(x.tuning.BatchSize))
	b = binary.AppendUvarint(b, uint64(x.tuning.Flush))
	b = binary.AppendUvarint(b, uint64(x.tuning.MaxPending))
	b = binary.AppendUvarint(b, uint64(len(x.idem)))
	for _, it := range x.idem {
		b = binary.AppendUvarint(b, uint64(len(it.key)))
		b = append(b, it.key...)
		b = binary.AppendUvarint(b, uint64(len(it.preds)))
		for _, p := range it.preds {
			b = binary.AppendUvarint(b, uint64(p))
		}
	}
	return b
}

// decodeSessionExtra unpacks an Extra section for a session of an n-node
// machine; every restored prediction must fit bitmap.Full(nodes), as the
// event decoders require of the bitmaps they accept. An empty section
// yields zero tuning (NewSession fills the defaults) and no cache — a
// snapshot produced outside the serving layer restores cleanly.
func decodeSessionExtra(data []byte, nodes int) (*sessionExtra, error) {
	x := &sessionExtra{}
	if len(data) == 0 {
		return x, nil
	}
	if nodes <= 0 || nodes > bitmap.MaxNodes {
		return nil, fmt.Errorf("serve: snapshot node count %d out of range [1,%d]", nodes, bitmap.MaxNodes)
	}
	full := bitmap.Full(nodes)
	r := canon.NewReader(data)
	if v := r.Uvarint(); r.Err() == nil && v != sessionExtraVersion {
		return nil, fmt.Errorf("serve: snapshot extra version %d not supported", v)
	}
	x.tuning.Shards = int(r.Uvarint())
	x.tuning.BatchSize = int(r.Uvarint())
	x.tuning.Flush = time.Duration(r.Uvarint())
	x.tuning.MaxPending = int(r.Uvarint())
	// An entry takes at least 3 bytes: key length, one key byte, and the
	// prediction count.
	n := r.Count(3, maxIdemKeys)
	seen := make(map[string]bool, n)
	x.idem = make([]idemItem, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		key := string(r.Bytes(maxIdemKeyLen))
		preds := make([]bitmap.Bitmap, r.Count(1, MaxBatchEvents))
		for j := range preds {
			preds[j] = bitmap.Bitmap(r.Uvarint())
			if preds[j]&^full != 0 {
				return nil, fmt.Errorf("serve: snapshot idempotency prediction %#x has bits beyond node %d", uint64(preds[j]), nodes-1)
			}
		}
		if r.Err() != nil {
			break
		}
		if key == "" || seen[key] {
			return nil, fmt.Errorf("serve: snapshot idempotency key %q empty or duplicated", key)
		}
		seen[key] = true
		x.idem = append(x.idem, idemItem{key: key, preds: preds})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: snapshot extra section: %w", err)
	}
	return x, nil
}

func sortEntryStates(es []core.EntryState) {
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
}
