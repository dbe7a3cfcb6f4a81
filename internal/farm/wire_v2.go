package farm

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The chunk-path binary codec (introduced as protocol v2, hence the
// file and the WriteFrameV2/ReadFrameV2 names; ProtocolVersion is its
// current revision). Framing is the handshake's — one 4-byte
// big-endian length, then the payload, bounded by MaxFrame, one Write
// call per frame — but the payload is a compact fixed layout instead of
// JSON: a type byte, varint scalar fields, length-prefixed strings, one
// fixed 8-byte seed, and the per-event hit counts as a dense varint
// array. No reflection and no encoding/json run anywhere on the chunk
// path, and both directions work against caller-owned, grow-once
// scratch buffers (the per-connection codec) or a shared sync.Pool
// (the stateless WriteFrameV2/ReadFrameV2), so steady-state
// encode/decode allocates nothing.
//
// Payload layout (all multi-byte scalars are unsigned varints except
// Seed, which is fixed64 little-endian; strings are varint length +
// bytes; every field of the flat Frame struct is always present, so
// any Frame round-trips exactly):
//
//	type     byte    (see type table)
//	version  uvarint
//	max      uvarint
//	capacity uvarint
//	id       uvarint
//	unit     string
//	has_tmpl byte (0/1)
//	template string
//	seed     fixed64 LE
//	lo       uvarint
//	hi       uvarint
//	sims     uvarint
//	err      string
//	nhits    uvarint, then nhits × uvarint hit counts
//	campaign string  (trace-correlation trailer)
//	batch    uvarint
//	chunk    uvarint
//	build    string

// Type bytes. 0 is deliberately invalid so an all-zero payload is
// rejected.
const (
	v2TypeHello byte = iota + 1
	v2TypeWelcome
	v2TypeChunk
	v2TypeResult
	v2TypePing
	v2TypePong
	v2TypeError
)

var v2TypeToByte = map[string]byte{
	TypeHello:   v2TypeHello,
	TypeWelcome: v2TypeWelcome,
	TypeChunk:   v2TypeChunk,
	TypeResult:  v2TypeResult,
	TypePing:    v2TypePing,
	TypePong:    v2TypePong,
	TypeError:   v2TypeError,
}

var v2ByteToType = [...]string{
	v2TypeHello:   TypeHello,
	v2TypeWelcome: TypeWelcome,
	v2TypeChunk:   TypeChunk,
	v2TypeResult:  TypeResult,
	v2TypePing:    TypePing,
	v2TypePong:    TypePong,
	v2TypeError:   TypeError,
}

// appendFrame appends f's binary payload to dst and returns the
// extended slice. It fails on frames the codec cannot represent
// (unknown type, negative scalar fields) rather than encoding garbage.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	tb, ok := v2TypeToByte[f.Type]
	if !ok {
		return dst, fmt.Errorf("farm: v2 encode: unknown frame type %q", f.Type)
	}
	if f.Version < 0 || f.Max < 0 || f.Capacity < 0 || f.Lo < 0 || f.Hi < 0 {
		return dst, fmt.Errorf("farm: v2 encode: negative field in %q frame", f.Type)
	}
	dst = append(dst, tb)
	dst = binary.AppendUvarint(dst, uint64(f.Version))
	dst = binary.AppendUvarint(dst, uint64(f.Max))
	dst = binary.AppendUvarint(dst, uint64(f.Capacity))
	dst = binary.AppendUvarint(dst, f.ID)
	dst = appendV2String(dst, f.Unit)
	if f.HasTemplate {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendV2String(dst, f.Template)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seed)
	dst = binary.AppendUvarint(dst, uint64(f.Lo))
	dst = binary.AppendUvarint(dst, uint64(f.Hi))
	dst = binary.AppendUvarint(dst, f.Sims)
	dst = appendV2String(dst, f.Err)
	dst = binary.AppendUvarint(dst, uint64(len(f.Hits)))
	for _, h := range f.Hits {
		dst = binary.AppendUvarint(dst, h)
	}
	dst = appendV2String(dst, f.Campaign)
	dst = binary.AppendUvarint(dst, f.Batch)
	dst = binary.AppendUvarint(dst, f.Chunk)
	dst = appendV2String(dst, f.Build)
	return dst, nil
}

func appendV2String(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// v2Reader walks a payload with sticky error state so decode code
// stays linear; every accessor is bounds-checked.
type v2Reader struct {
	p   []byte
	off int
	err error
}

func (r *v2Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("farm: v2 decode: truncated or malformed %s at offset %d", what, r.off)
	}
}

func (r *v2Reader) byte(what string) byte {
	if r.err != nil || r.off >= len(r.p) {
		r.fail(what)
		return 0
	}
	b := r.p[r.off]
	r.off++
	return b
}

func (r *v2Reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *v2Reader) varintInt(what string) int {
	v := r.uvarint(what)
	if r.err == nil && v > 1<<31-1 {
		// int fields (version, capacity, lo, hi, lengths) never
		// legitimately exceed 31 bits; reject before any conversion
		// trap. Lengths are additionally bounded by the payload.
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *v2Reader) str(what string) string {
	n := r.varintInt(what)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.p) {
		r.fail(what)
		return ""
	}
	if n == 0 {
		return ""
	}
	s := string(r.p[r.off : r.off+n])
	r.off += n
	return s
}

func (r *v2Reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.p) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

// decodeFrame decodes one binary payload into f, reusing f's Hits
// capacity. Trailing bytes, truncated fields (the trace trailer
// included), unknown types and implausible lengths are all rejected.
func decodeFrame(p []byte, f *Frame) error {
	hits := f.Hits[:0]
	*f = Frame{}
	r := &v2Reader{p: p}
	tb := r.byte("type")
	if r.err == nil && (int(tb) >= len(v2ByteToType) || v2ByteToType[tb] == "") {
		return fmt.Errorf("farm: v2 decode: unknown frame type byte %d", tb)
	}
	f.Type = v2ByteToType[tb]
	f.Version = r.varintInt("version")
	f.Max = r.varintInt("max")
	f.Capacity = r.varintInt("capacity")
	f.ID = r.uvarint("id")
	f.Unit = r.str("unit")
	f.HasTemplate = r.byte("has_tmpl") != 0
	f.Template = r.str("template")
	f.Seed = r.u64("seed")
	f.Lo = r.varintInt("lo")
	f.Hi = r.varintInt("hi")
	f.Sims = r.uvarint("sims")
	f.Err = r.str("err")
	nhits := r.varintInt("nhits")
	if r.err == nil && nhits > len(p)-r.off {
		// Every hit count takes at least one byte, so a declared count
		// beyond the remaining payload is garbage — reject before
		// growing the hits buffer.
		r.fail("nhits")
	}
	if r.err == nil && nhits > 0 {
		if cap(hits) < nhits {
			hits = make([]uint64, 0, nhits)
		}
		for i := 0; i < nhits; i++ {
			hits = append(hits, r.uvarint("hit"))
		}
		f.Hits = hits[:nhits]
	}
	f.Campaign = r.str("campaign")
	f.Batch = r.uvarint("batch")
	f.Chunk = r.uvarint("chunk")
	f.Build = r.str("build")
	if r.err != nil {
		return r.err
	}
	if r.off != len(p) {
		return fmt.Errorf("farm: v2 decode: %d trailing bytes after %q frame", len(p)-r.off, f.Type)
	}
	return nil
}

// codec is one connection's binary codec. A connection is owned by
// exactly one goroutine at a time (dispatcher lane, heartbeater, or
// server handler), so the codec's grow-once scratch buffers are reused
// across every frame of the session without synchronization — after
// warm-up the chunk path allocates nothing.
type codec struct {
	wbuf []byte // encode scratch: 4-byte length prefix + payload
	rbuf []byte // decode scratch: one payload
}

// write encodes f as one length-prefixed frame in a single Write call
// (the contract the fault-injection loopback counts on).
func (c *codec) write(w io.Writer, f *Frame) error {
	if cap(c.wbuf) < 4 {
		c.wbuf = make([]byte, 4, 512)
	}
	buf, err := appendFrame(c.wbuf[:4], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	if len(buf)-4 > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err = w.Write(buf)
	return err
}

// read decodes one frame into f, reusing the codec's payload scratch
// and f's Hits capacity.
func (c *codec) read(r io.Reader, f *Frame) error {
	// The header goes through the codec scratch, not a local array: a
	// local would escape through the io.Reader interface and cost one
	// heap allocation per frame.
	if cap(c.rbuf) < 4 {
		c.rbuf = make([]byte, 0, 512)
	}
	hdr := c.rbuf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	p := c.rbuf[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeFrame(p, f)
}

// codecPool backs the stateless WriteFrameV2/ReadFrameV2: transient
// callers (handshake-free tools, fuzzers, benches) share pooled
// scratch instead of allocating per frame.
var codecPool = sync.Pool{New: func() any { return &codec{} }}

// WriteFrameV2 encodes f as one binary frame using pooled scratch.
// Sessions should prefer a per-connection codec, which amortizes
// without pool traffic.
func WriteFrameV2(w io.Writer, f *Frame) error {
	c := codecPool.Get().(*codec)
	err := c.write(w, f)
	codecPool.Put(c)
	return err
}

// ReadFrameV2 decodes one binary frame using pooled scratch.
func ReadFrameV2(r io.Reader, f *Frame) error {
	c := codecPool.Get().(*codec)
	err := c.read(r, f)
	codecPool.Put(c)
	return err
}
