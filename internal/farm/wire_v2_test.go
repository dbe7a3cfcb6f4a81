package farm

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
)

// quickFrame builds a codec-representable frame from fuzz/quick raw
// material (valid type, non-negative ints, valid UTF-8 strings — the
// set the codec promises to round-trip).
func quickFrame(typeIdx uint8, version, capacity uint16, id, seed, sims uint64,
	lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64) Frame {
	types := []string{TypeHello, TypeWelcome, TypeChunk, TypeResult, TypePing, TypePong, TypeError}
	f := Frame{
		Type:        types[int(typeIdx)%len(types)],
		Version:     int(version),
		Capacity:    int(capacity),
		ID:          id,
		Unit:        strings.ToValidUTF8(unit, "?"),
		Seed:        seed,
		Lo:          int(lo),
		Hi:          int(hi),
		HasTemplate: hasTmpl,
		Sims:        sims,
		Err:         strings.ToValidUTF8(errMsg, "?"),
	}
	if hasTmpl {
		f.Template = "template t { weight Mode { a: 1; } }"
	}
	if len(hits) > 0 { // the codec folds empty slices to nil
		f.Hits = hits
	}
	return f
}

// traceFrame is a representative chunk frame carrying the trace
// trailer (campaign/batch/chunk identity plus the peer build string).
func traceFrame() Frame {
	return Frame{
		Type: TypeChunk, ID: 9, Unit: "iounit",
		Template: "template t { weight Mode { a: 1; } }", HasTemplate: true,
		Seed: 77, Lo: 8, Hi: 24,
		Campaign: "c000042", Batch: 13, Chunk: 123456, Build: "abc123def456",
	}
}

// TestFrameRoundTripQuickV2 property-checks the binary codec: any
// representable frame survives encode → decode bit for bit.
func TestFrameRoundTripQuickV2(t *testing.T) {
	prop := func(typeIdx uint8, version, capacity uint16, id, seed, sims uint64,
		lo, hi uint16, unit, errMsg string, hasTmpl bool, hits []uint64) bool {
		f := quickFrame(typeIdx, version, capacity, id, seed, sims, lo, hi, unit, errMsg, hasTmpl, hits)
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, &f); err != nil {
			return false
		}
		var got Frame
		if err := ReadFrameV2(&buf, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(f, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTripQuickV3 property-checks the trace trailer over
// frames with arbitrary trace identities: binary encode → decode is the
// identity, and the JSON handshake codec agrees field for field.
func TestFrameRoundTripQuickV3(t *testing.T) {
	prop := func(typeIdx uint8, id, seed uint64, lo, hi uint16, unit string,
		campaign, build string, batch, chunkID uint64, hits []uint64) bool {
		f := quickFrame(typeIdx, 1, 4, id, seed, uint64(len(hits)), lo, hi, unit, "", false, hits)
		f.Campaign = strings.ToValidUTF8(campaign, "?")
		f.Build = strings.ToValidUTF8(build, "?")
		f.Batch = batch
		f.Chunk = chunkID
		p, err := appendFrame(nil, &f)
		if err != nil {
			return false
		}
		var bin Frame
		if err := decodeFrame(p, &bin); err != nil {
			return false
		}
		if !reflect.DeepEqual(f, bin) {
			return false
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &f); err != nil {
			return false
		}
		var js Frame
		if err := ReadFrame(&buf, &js); err != nil {
			return false
		}
		return reflect.DeepEqual(js, bin)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTripV3 locks the trace fields on both codecs: the
// binary chunk-path codec carries them in its trailer, and the JSON
// handshake codec carries them as keys (Build travels on hello and
// welcome).
func TestFrameRoundTripV3(t *testing.T) {
	f := traceFrame()

	var buf bytes.Buffer
	c := &codec{}
	if err := c.write(&buf, &f); err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := c.read(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("binary round trip:\n%+v\nvs\n%+v", got, f)
	}

	buf.Reset()
	if err := WriteFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	var js Frame
	if err := ReadFrame(&buf, &js); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, js) {
		t.Fatalf("JSON round trip dropped trace fields:\n%+v\nvs\n%+v", js, f)
	}
}

// TestChunkFrameCarriesTraceIdentity locks the dispatcher-side fill
// path: a RemoteChunk's campaign/batch/chunk identity lands on the
// outbound frame.
func TestChunkFrameCarriesTraceIdentity(t *testing.T) {
	c := sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 8,
		Campaign: "c000007", Batch: 3, Chunk: 99,
	}
	var f Frame
	fillChunkFrame(&f, 11, c)
	if f.Campaign != "c000007" || f.Batch != 3 || f.Chunk != 99 {
		t.Fatalf("frame trace identity = %q/%d/%d", f.Campaign, f.Batch, f.Chunk)
	}
}

// TestV2EncodeRejects checks the encoder refuses frames the binary
// codec cannot represent instead of writing garbage.
func TestV2EncodeRejects(t *testing.T) {
	if _, err := appendFrame(nil, &Frame{Type: "martian"}); err == nil {
		t.Fatal("unknown type encoded")
	}
	if _, err := appendFrame(nil, &Frame{Type: TypeChunk, Lo: -1}); err == nil {
		t.Fatal("negative field encoded")
	}
}

// emptyTrailer is the encoding of a trace trailer with every field
// zero: campaign length, batch, chunk, build length.
var emptyTrailer = []byte{0, 0, 0, 0}

// TestV2DecodeRejects checks malformed payloads are rejected rather
// than misread: empty input, unknown types, truncations at every
// boundary, phantom hit counts, and trailing bytes.
func TestV2DecodeRejects(t *testing.T) {
	tf := traceFrame()
	valid, err := appendFrame(nil, &Frame{
		Type: TypeResult, ID: 9, Hits: []uint64{1, 0, 300}, Sims: 3,
		Campaign: tf.Campaign, Batch: tf.Batch, Chunk: tf.Chunk, Build: tf.Build,
	})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := decodeFrame(nil, &f); err == nil {
		t.Fatal("empty payload accepted")
	}
	for _, tb := range []byte{0, v2TypeError + 1, 200} {
		p := append([]byte{tb}, valid[1:]...)
		if err := decodeFrame(p, &f); err == nil {
			t.Fatalf("unknown type byte %d accepted", tb)
		}
	}
	for cut := 1; cut < len(valid); cut++ {
		if err := decodeFrame(valid[:cut], &f); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(valid))
		}
	}
	if err := decodeFrame(append(append([]byte{}, valid...), 0), &f); err == nil {
		t.Fatal("trailing byte accepted")
	}
	noHits, err := appendFrame(nil, &Frame{Type: TypeResult, ID: 9, Sims: 3})
	if err != nil {
		t.Fatal(err)
	}
	body, trailer := noHits[:len(noHits)-len(emptyTrailer)], noHits[len(noHits)-len(emptyTrailer):]
	if !bytes.Equal(trailer, emptyTrailer) {
		t.Fatalf("empty trailer encodes as %v, want %v", trailer, emptyTrailer)
	}
	// A declared hit count beyond the remaining payload must be rejected
	// before any allocation: rebuild the frame with nhits=200 and only
	// the trailer behind it.
	phantom := append(append(append([]byte{}, body[:len(body)-1]...), 200, 1), emptyTrailer...) // nhits varint = 200
	if err := decodeFrame(phantom, &f); err == nil {
		t.Fatal("phantom hit count accepted")
	}
}

// TestV3TrailerStrictness locks the failure modes of the trace
// trailer: every frame carries one, so a payload that stops where the
// trailer should start, or that runs on past it, is a protocol
// violation that must fail loudly, not decode into a half-right frame.
func TestV3TrailerStrictness(t *testing.T) {
	f := traceFrame()
	p, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := decodeFrame(append(append([]byte{}, p...), 0), &got); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("decode with a byte past the trailer: %v, want trailing-bytes error", err)
	}
	empty := f
	empty.Campaign, empty.Batch, empty.Chunk, empty.Build = "", 0, 0, ""
	noTrace, err := appendFrame(nil, &empty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(noTrace, emptyTrailer) {
		t.Fatalf("empty trailer missing from %v", noTrace)
	}
	// A payload that ends where the trace trailer should start is
	// truncated.
	if err := decodeFrame(noTrace[:len(noTrace)-len(emptyTrailer)], &got); err == nil {
		t.Fatal("payload without a trailer accepted")
	}
}

// countingWriter counts Write calls — the frame-counting contract the
// fault-injection loopback relies on.
type countingWriter struct {
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

func TestCodecOneWritePerFrame(t *testing.T) {
	f := &Frame{Type: TypeResult, ID: 1, Hits: []uint64{1, 2, 3}, Sims: 3}
	for name, write := range map[string]func(io.Writer, *Frame) error{
		"codec": (&codec{}).write,
		"json":  WriteFrame,
	} {
		cw := &countingWriter{}
		if err := write(cw, f); err != nil {
			t.Fatal(err)
		}
		if cw.writes != 1 {
			t.Fatalf("%s frame took %d Write calls, want 1", name, cw.writes)
		}
	}
}

// TestCodecV2RoundTripAllocs pins the steady-state promise: a warm
// per-connection codec moves result frames with zero allocations on
// both the encode and decode side.
func TestCodecV2RoundTripAllocs(t *testing.T) {
	c := &codec{}
	hits := make([]uint64, 512)
	for i := range hits {
		hits[i] = uint64(i * 7)
	}
	f := &Frame{Type: TypeResult, ID: 3, Hits: hits, Sims: 99}
	got := Frame{Hits: make([]uint64, 0, len(hits))}
	var buf bytes.Buffer
	buf.Grow(16 << 10)
	// Warm the codec scratch once.
	if err := c.write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if err := c.read(&buf, &got); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := c.write(&buf, f); err != nil {
			t.Fatal(err)
		}
		if err := c.read(&buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm result round-trip allocates %.1f times per frame, want 0", allocs)
	}
	if !reflect.DeepEqual(f.Hits, got.Hits) || got.Sims != f.Sims {
		t.Fatal("round-trip corrupted the frame")
	}
}

func TestCheckModelFits(t *testing.T) {
	if err := CheckModelFits(MaxEventsV2()); err != nil {
		t.Fatalf("boundary model rejected: %v", err)
	}
	err := CheckModelFits(MaxEventsV2() + 1)
	var mtl *ModelTooLargeError
	if !errors.As(err, &mtl) {
		t.Fatalf("err = %v, want *ModelTooLargeError", err)
	}
	if mtl.Events != MaxEventsV2()+1 || mtl.MaxEvents != MaxEventsV2() {
		t.Fatalf("error fields = %+v", mtl)
	}
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("ModelTooLargeError must be distinguishable from ErrFrameTooLarge")
	}
}

// TestFarmModelTooLarge checks the dispatcher's behavior on a model
// that cannot fit a legal frame: the typed error surfaces immediately,
// nothing is retried, and the (healthy) connection survives and keeps
// serving.
func TestFarmModelTooLarge(t *testing.T) {
	rec := obs.NewRecorder()
	d, _ := farmFixture(t, []Faults{{}}, rec)
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, err := d.RunChunk(sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 4, Events: MaxEventsV2() + 1,
	})
	var mtl *ModelTooLargeError
	if !errors.As(err, &mtl) {
		t.Fatalf("err = %v, want *ModelTooLargeError", err)
	}
	snap := rec.Metrics.Snapshot()
	if snap.Counters["farm.conn_evictions"] != 0 {
		t.Fatal("healthy connection evicted over a permanent model-size error")
	}
	if snap.Counters["farm.retries"] != 0 {
		t.Fatal("permanent model-size error was retried")
	}
	// The same connection still executes normal chunks.
	unit := iounit.New()
	got, err := d.RunChunk(sim.RemoteChunk{
		Unit: iounit.UnitName, Seed: 42, Lo: 0, Hi: 10, Events: unit.Model().Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sims() != 10 {
		t.Fatalf("post-error chunk sims = %d, want 10", got.Sims())
	}
}

// FuzzWireDecodeV2 fuzzes the binary decoder with raw payloads: any
// input either fails cleanly or yields a frame that re-encodes and
// re-decodes to itself (semantic idempotence — overlong varints may
// re-encode shorter, but never to a different frame).
func FuzzWireDecodeV2(f *testing.F) {
	seeds := []Frame{
		{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion, Build: "abc123def456"},
		{Type: TypeWelcome, Version: handshakeVersion, Max: ProtocolVersion, Capacity: 4, Build: "abc123def456"},
		traceFrame(),
		{Type: TypeResult, ID: 7, Hits: []uint64{0, 1, 1 << 40}, Sims: 16, Campaign: "c000042", Batch: 13, Chunk: 123456},
		{Type: TypePing, ID: 3},
		{Type: TypeError, Err: "boom"},
	}
	for i := range seeds {
		p, err := appendFrame(nil, &seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{v2TypeResult})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, p []byte) {
		var fr Frame
		if err := decodeFrame(p, &fr); err != nil {
			return
		}
		enc, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, fr)
		}
		var fr2 Frame
		if err := decodeFrame(enc, &fr2); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round-trip diverged:\n%+v\nvs\n%+v", fr, fr2)
		}
	})
}

// TestReadFrameV2RejectsOversizedLength mirrors the JSON guard: a
// declared length beyond MaxFrame fails before allocating.
func TestReadFrameV2RejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	var f Frame
	if err := ReadFrameV2(bytes.NewReader(hdr[:]), &f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteFrameV2RejectsOversized mirrors the JSON write guard.
func TestWriteFrameV2RejectsOversized(t *testing.T) {
	f := &Frame{Type: TypeChunk, Template: strings.Repeat("x", MaxFrame+1), HasTemplate: true}
	if err := WriteFrameV2(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
