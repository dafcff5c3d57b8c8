package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/trace"
)

func TestUvarint(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want uint64
		err  error
	}{
		{"zero", []byte{0}, 0, nil},
		{"one byte max", []byte{0x7f}, 0x7f, nil},
		{"two bytes", []byte{0x80, 0x01}, 0x80, nil},
		{"max uint64", binary.AppendUvarint(nil, ^uint64(0)), ^uint64(0), nil},
		{"empty", nil, 0, ErrTruncated},
		{"cut mid-value", []byte{0x80}, 0, ErrTruncated},
		{"overflows 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0, ErrTruncated},
		{"non-minimal zero", []byte{0x80, 0x00}, 0, ErrNonMinimal},
		{"non-minimal one", []byte{0x81, 0x80, 0x00}, 0, ErrNonMinimal},
		{"non-minimal ten bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 0, ErrNonMinimal},
	}
	for _, tc := range cases {
		r := NewReader(tc.in)
		if got := r.Uvarint(); got != tc.want || !errors.Is(r.Err(), tc.err) {
			t.Errorf("%s: got %d, %v; want %d, %v", tc.name, got, r.Err(), tc.want, tc.err)
		}
	}
}

// TestUvarintMinimalEveryWidth: every value AppendUvarint writes is read
// back, and every one-group-wider spelling of it is refused.
func TestUvarintMinimalEveryWidth(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		v := uint64(1) << shift
		enc := binary.AppendUvarint(nil, v)
		r := NewReader(enc)
		if got := r.Uvarint(); got != v || r.Done() != nil {
			t.Fatalf("%#x: read %#x, %v", v, got, r.Err())
		}
		if len(enc) == binary.MaxVarintLen64 {
			continue
		}
		wide := append(append([]byte(nil), enc...), 0)
		wide[len(enc)-1] |= 0x80
		r = NewReader(wide)
		if r.Uvarint(); !errors.Is(r.Err(), ErrNonMinimal) {
			t.Fatalf("%#x: widened form %x gave %v", v, wide, r.Err())
		}
	}
}

func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 0x05})
	r.Uvarint()
	if got := r.Uvarint(); got != 0 || !errors.Is(r.Err(), ErrNonMinimal) {
		t.Fatalf("read after failure returned %d, %v", got, r.Err())
	}
	if r.Bool() || r.Count(1, 10) != 0 || r.Bytes(10) != nil || r.Event(16) != (trace.Event{}) {
		t.Fatal("reads after a failure must return zero values")
	}
	if !errors.Is(r.Done(), ErrNonMinimal) {
		t.Fatalf("Done = %v, want the first failure", r.Done())
	}
}

func TestBoolCountBytesMagicDone(t *testing.T) {
	check := func(name string, in []byte, read func(r *Reader), want error) {
		t.Helper()
		r := NewReader(in)
		read(&r)
		if err := r.Done(); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
	check("bool 0", []byte{0}, func(r *Reader) { r.Bool() }, nil)
	check("bool 1", []byte{1}, func(r *Reader) { r.Bool() }, nil)
	check("bool 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrBool)
	check("count fits", []byte{2, 0, 0}, func(r *Reader) { r.Count(1, 2); r.Uvarint(); r.Uvarint() }, nil)
	check("count beyond input", []byte{3, 0, 0}, func(r *Reader) { r.Count(1, 10) }, ErrCount)
	check("count beyond min size", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2, 10) }, ErrCount)
	check("count beyond limit", []byte{2, 0, 0}, func(r *Reader) { r.Count(1, 1) }, ErrCount)
	check("bytes", []byte{2, 'h', 'i'}, func(r *Reader) {
		if got := r.Bytes(2); string(got) != "hi" {
			t.Errorf("bytes = %q", got)
		}
	}, nil)
	check("bytes beyond max", []byte{3, 'a', 'b', 'c'}, func(r *Reader) { r.Bytes(2) }, ErrLength)
	check("bytes beyond input", []byte{3, 'a'}, func(r *Reader) { r.Bytes(8) }, ErrTruncated)
	check("magic", []byte("MAGIC"), func(r *Reader) { r.Magic("MAGIC") }, nil)
	check("wrong magic", []byte("MAGIX"), func(r *Reader) { r.Magic("MAGIC") }, ErrMagic)
	check("short magic", []byte("MAG"), func(r *Reader) { r.Magic("MAGIC") }, ErrMagic)
	check("trailing", []byte{1, 0}, func(r *Reader) { r.Uvarint() }, ErrTrailing)
}

func appendEvent(dst []byte, ev *trace.Event) []byte {
	return AppendEvent(dst, ev.PID, ev.PC, ev.Dir, ev.Addr, uint64(ev.InvReaders),
		ev.HasPrev, ev.PrevPID, ev.PrevPC, uint64(ev.FutureReaders))
}

func TestEventRoundTrip(t *testing.T) {
	evs := []trace.Event{
		{},
		{PID: 3, PC: 0x4000, Dir: 15, Addr: 1 << 40, InvReaders: 0x8001, FutureReaders: 0xffff},
		{PID: 1, PC: 7, Dir: 2, Addr: 64, HasPrev: true, PrevPID: 15, PrevPC: 1 << 63, FutureReaders: 4},
	}
	for _, ev := range evs {
		enc := appendEvent(nil, &ev)
		if len(enc) < MinEventBytes {
			t.Fatalf("%+v encodes to %d bytes, below MinEventBytes", ev, len(enc))
		}
		r := NewReader(enc)
		got := r.Event(16)
		if err := r.Done(); err != nil || got != ev {
			t.Fatalf("%+v decoded as %+v, %v", ev, got, err)
		}
		if !bytes.Equal(appendEvent(nil, &got), enc) {
			t.Fatalf("%+v does not re-encode identically", ev)
		}
	}
}

func TestEventRejects(t *testing.T) {
	base := trace.Event{PID: 1, Dir: 2, HasPrev: true, PrevPID: 3, InvReaders: 1, FutureReaders: 2}
	cases := []struct {
		name string
		mut  func(*trace.Event)
	}{
		{"pid", func(ev *trace.Event) { ev.PID = 16 }},
		{"negative pid", func(ev *trace.Event) { ev.PID = -1 }},
		{"dir", func(ev *trace.Event) { ev.Dir = 16 }},
		{"prev pid", func(ev *trace.Event) { ev.PrevPID = 16 }},
		{"inv readers", func(ev *trace.Event) { ev.InvReaders = 1 << 16 }},
		{"future readers", func(ev *trace.Event) { ev.FutureReaders = 1 << 16 }},
	}
	for _, tc := range cases {
		ev := base
		tc.mut(&ev)
		if EventFits(&ev, 16) {
			t.Errorf("%s: EventFits accepted %+v", tc.name, ev)
		}
		r := NewReader(appendEvent(nil, &ev))
		if got := r.Event(16); got != (trace.Event{}) || !errors.Is(r.Err(), ErrRange) {
			t.Errorf("%s: Event = %+v, %v; want ErrRange", tc.name, got, r.Err())
		}
	}
	// prev_pid only counts under has_prev.
	ev := base
	ev.HasPrev, ev.PrevPID = false, 99
	if !EventFits(&ev, 16) {
		t.Error("EventFits checked prev_pid without has_prev")
	}
	// Every node of a full 64-node machine fits.
	full := trace.Event{PID: 63, Dir: 63, InvReaders: bitmap.Full(64), FutureReaders: bitmap.Full(64)}
	if !EventFits(&full, bitmap.MaxNodes) {
		t.Error("EventFits rejected a 64-node event")
	}
	// A has_prev word other than 0 or 1 is ErrBool.
	r := NewReader([]byte{0, 0, 0, 0, 0, 2, 0, 0, 0})
	if r.Event(16); !errors.Is(r.Err(), ErrBool) {
		t.Errorf("has_prev 2: %v, want ErrBool", r.Err())
	}
}

// TestEventAllocFree: the event codec is on the serving hot path.
func TestEventAllocFree(t *testing.T) {
	ev := trace.Event{PID: 1, PC: 1 << 20, Dir: 2, Addr: 1 << 30, HasPrev: true, PrevPID: 3, FutureReaders: 5}
	buf := make([]byte, 0, 64)
	enc := appendEvent(nil, &ev)
	var sink trace.Event
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendEvent(buf[:0], &ev)
		r := NewReader(enc)
		sink = r.Event(16)
	})
	if allocs != 0 || sink != ev {
		t.Fatalf("event codec allocates %.1f times per call (decoded %+v)", allocs, sink)
	}
}
