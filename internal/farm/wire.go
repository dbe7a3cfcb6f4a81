// Package farm is the distributed execution backend of the AS-CDG
// reproduction: the stand-in for the industrial simulation farm the
// paper's CDG-Runner submits jobs to (Section I, Fig. 2 — "the massive
// compute resources of the simulation farm").
//
// A farm deployment is a set of worker daemons (cmd/farmd) running
// Server, and a Dispatcher inside the flow process that implements
// sim.ChunkRunner: the scheduler's remote lanes hand it relocatable
// chunks — (unit, template source, batch-seed state, index range) — and
// it returns the chunk's aggregated coverage counts. Because instance i
// of a batch is seeded purely from (batch seed, i), a chunk computes the
// same bits on any worker, so the flow's reports are bit-identical at
// any fleet size, under any failure pattern, and with remote execution
// disabled entirely.
//
// The wire protocol is one binary codec behind one framing. Every
// frame is one 4-byte big-endian length followed by exactly that many
// bytes of payload, bounded by MaxFrame — framing is the load-bearing
// part. The handshake (hello/welcome) is length-prefixed JSON, so it
// needs nothing beyond the standard library, stays debuggable with
// nc/tcpdump, and any build can read the refusal of any other. The
// hello offers ProtocolVersion in Max; a server answers a welcome
// echoing it, or an error frame naming both versions when they differ.
// After the welcome the session switches to the compact binary codec
// (wire_v2.go) — no reflection, no encoding/json, dense varint hit
// arrays, and a trace-correlation trailer (campaign/batch/chunk IDs and
// the peer's build identity) that no result bit depends on.
package farm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/template"
)

// ProtocolVersion is the chunk-path codec this build speaks, offered
// in the hello's Max field and echoed in the welcome's. Peers must
// match exactly: there is no negotiation. Bump on any frame layout or
// semantics change.
const ProtocolVersion = 3

// handshakeVersion is the Version field of hello and welcome frames:
// the version of the JSON handshake framing itself, which never
// changes, so builds of any age can exchange a readable refusal.
const handshakeVersion = 1

// MaxFrame bounds a frame's payload. Chunk requests carry one
// template source (a few KiB) and results carry one hit-count slice
// (8 bytes per event), so 4 MiB is orders of magnitude above any
// legitimate frame while still rejecting garbage lengths (e.g. a peer
// that isn't speaking the protocol) before allocating.
const MaxFrame = 4 << 20

// Frame types. A session is: client sends TypeHello, server answers
// TypeWelcome (or TypeError and closes); then any number of
// TypeChunk→TypeResult and TypePing→TypePong exchanges.
const (
	TypeHello   = "hello"
	TypeWelcome = "welcome"
	TypeChunk   = "chunk"
	TypeResult  = "result"
	TypePing    = "ping"
	TypePong    = "pong"
	TypeError   = "error"
)

// Wire errors.
var (
	// ErrFrameTooLarge reports a frame whose declared length exceeds
	// MaxFrame (read side) or whose encoding would (write side).
	ErrFrameTooLarge = errors.New("farm: frame exceeds MaxFrame")
	// ErrVersionMismatch reports a handshake refused over the codec
	// version, or with a peer that does not speak the protocol.
	ErrVersionMismatch = errors.New("farm: protocol version mismatch")
)

// ModelTooLargeError reports a coverage model whose dense per-event
// hit-count array cannot fit a legal frame: the dispatcher refuses the
// chunk before sending rather than shipping a request whose reply
// would be unreadable, and a server refuses in-band for the same
// reason. It is a typed error (not a bare ErrFrameTooLarge) so callers
// can distinguish "this model can never travel" from a transient
// garbage frame.
type ModelTooLargeError struct {
	// Events is the model's event count; MaxEvents is the largest
	// count whose worst-case result payload fits MaxFrame.
	Events, MaxEvents int
}

func (e *ModelTooLargeError) Error() string {
	return fmt.Sprintf("farm: coverage model with %d events exceeds frame capacity (max %d events per %d-byte frame)",
		e.Events, e.MaxEvents, MaxFrame)
}

// maxVarint64 is the worst-case encoded size of one uvarint field.
const maxVarint64 = 10 // binary.MaxVarintLen64

// v2ResultOverhead bounds every non-hits byte of a binary result
// frame: type byte + fixed seed + a dozen worst-case varint fields,
// plus the trace trailer (two varint IDs and two strings that are
// empty on results). Kept deliberately generous; it only has to be an
// upper bound.
const v2ResultOverhead = 256

// MaxEventsV2 is the largest coverage-model size whose worst-case
// result frame (every hit count varint-maximal) still fits MaxFrame.
func MaxEventsV2() int {
	return (MaxFrame - v2ResultOverhead) / maxVarint64
}

// CheckModelFits reports whether a model of the given event count can
// travel in result frames, computed from MaxFrame — the size check the
// dispatcher runs before shipping a chunk.
func CheckModelFits(events int) error {
	if max := MaxEventsV2(); events > max {
		return &ModelTooLargeError{Events: events, MaxEvents: max}
	}
	return nil
}

// Frame is the single wire message shape; Type selects which fields are
// meaningful. A flat struct (rather than per-type messages) keeps the
// codec one Marshal/Unmarshal pair and lets readers skip frames they
// did not ask for (stale duplicates, heartbeat replies) by inspecting
// Type and ID only.
type Frame struct {
	Type    string `json:"t"`
	Version int    `json:"v,omitempty"`

	// Max is the chunk-path codec version: on hello, the one the client
	// speaks; on welcome, the same value echoed back. Anything but
	// ProtocolVersion is refused.
	Max int `json:"max,omitempty"`

	// Welcome: how many chunks the worker executes concurrently.
	Capacity int `json:"cap,omitempty"`

	// Chunk/Result/Ping/Pong correlation ID, unique per connection.
	ID uint64 `json:"id,omitempty"`

	// Chunk request: the relocatable chunk identity.
	Unit        string `json:"unit,omitempty"`
	Template    string `json:"tmpl,omitempty"`
	HasTemplate bool   `json:"has_tmpl,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	Lo          int    `json:"lo,omitempty"`
	Hi          int    `json:"hi,omitempty"`

	// Result: the chunk's aggregate (per-event hit counts + sims), or
	// Err if execution failed. Err is also used by TypeError frames.
	Hits []uint64 `json:"hits,omitempty"`
	Sims uint64   `json:"sims,omitempty"`
	Err  string   `json:"err,omitempty"`

	// Trace correlation (purely observational — no result bit depends
	// on these): the originating campaign / batch / chunk identity the
	// dispatcher stamps on chunk requests so worker-side spans line up
	// with their dispatcher-side parents in a merged fleet trace. The
	// binary codec carries them in its trailer. Build carries the peer's
	// build identity on hello (client) and welcome (server).
	Campaign string `json:"camp,omitempty"`
	Batch    uint64 `json:"batch,omitempty"`
	Chunk    uint64 `json:"chunk,omitempty"`
	Build    string `json:"build,omitempty"`
}

// WriteFrame encodes f as one length-prefixed JSON frame, the
// handshake codec. The prefix and payload go out in a single Write
// call so stream wrappers that count or mutate writes (the
// fault-injection loopback) see exactly one write per frame.
func WriteFrame(w io.Writer, f *Frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("farm: encode frame: %w", err)
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = w.Write(buf)
	return err
}

// ReadFrame decodes one length-prefixed JSON frame into f. It fails on
// truncated streams (io.ErrUnexpectedEOF), oversized declared lengths
// (ErrFrameTooLarge, before allocating), and payloads that are not a
// JSON frame. A clean EOF before any byte is io.EOF.
func ReadFrame(r io.Reader, f *Frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	*f = Frame{}
	if err := json.Unmarshal(payload, f); err != nil {
		return fmt.Errorf("farm: decode frame: %w", err)
	}
	return nil
}

// fillChunkFrame encodes a scheduler chunk as a request frame into a
// caller-owned frame. The template travels as source text:
// Template.String() → template.Parse round-trips exactly, and the
// server's plan cache is content-keyed, so re-parsing per request costs
// one parse, not one compile. The frame's Hits capacity survives the
// reset, so a connection's reusable frame keeps its decode buffer
// across requests.
func fillChunkFrame(f *Frame, id uint64, c sim.RemoteChunk) {
	*f = Frame{
		Type:     TypeChunk,
		ID:       id,
		Unit:     c.Unit,
		Seed:     c.Seed,
		Lo:       c.Lo,
		Hi:       c.Hi,
		Hits:     f.Hits[:0],
		Campaign: c.Campaign,
		Batch:    c.Batch,
		Chunk:    c.Chunk,
	}
	if c.Template != nil {
		f.Template = c.Template.String()
		f.HasTemplate = true
	}
}

// chunkTemplate recovers the request's template; nil with HasTemplate
// unset means the batch runs the unit's pure default behavior.
func chunkTemplate(f *Frame) (*template.Template, error) {
	if !f.HasTemplate {
		return nil, nil
	}
	return template.Parse(f.Template)
}
