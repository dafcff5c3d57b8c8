package serve

import (
	"bytes"
	"testing"

	"cohpredict/internal/bitmap"
)

// FuzzDecodeSessionExtra: the snapshot Extra decoder never panics and is
// canonical — every non-empty section it accepts re-encodes byte for byte.
// (An empty section is the "no serving state" form and has no encoding of
// its own.) The second argument picks the session's node count.
func FuzzDecodeSessionExtra(f *testing.F) {
	tuning := SessionTuning{Shards: 2, BatchSize: 256, Flush: 200_000, MaxPending: 16384}
	f.Add(encodeSessionExtra(&sessionExtra{tuning: tuning}), uint8(15))
	f.Add(encodeSessionExtra(&sessionExtra{tuning: tuning, idem: []idemItem{
		{key: "0000000000000001-k1", preds: []bitmap.Bitmap{3, 0xffff, 0}},
		{key: "k2", preds: []bitmap.Bitmap{}},
	}}), uint8(15))
	f.Add(encodeSessionExtra(&sessionExtra{tuning: SessionTuning{Flush: -1}}), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		nodes := int(n)%bitmap.MaxNodes + 1
		x, err := decodeSessionExtra(data, nodes)
		if err != nil || len(data) == 0 {
			return
		}
		if got := encodeSessionExtra(x); !bytes.Equal(got, data) {
			t.Fatalf("accepted extra %x re-encodes as %x", data, got)
		}
	})
}
