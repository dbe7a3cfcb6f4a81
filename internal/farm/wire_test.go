package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

// TestFrameRoundTripQuick property-checks the codec: any frame survives
// WriteFrame → ReadFrame bit for bit.
func TestFrameRoundTripQuick(t *testing.T) {
	types := []string{TypeHello, TypeWelcome, TypeChunk, TypeResult, TypePing, TypePong, TypeError}
	prop := func(typeIdx uint8, version, capacity uint16, id, seed uint64,
		lo, hi uint16, hits []uint64, sims uint64, hasTmpl bool, errMsg string) bool {
		f := Frame{
			Type:        types[int(typeIdx)%len(types)],
			Version:     int(version),
			Capacity:    int(capacity),
			ID:          id,
			Unit:        "iounit",
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
		if len(hits) > 0 { // omitempty folds empty slices to nil
			f.Hits = hits
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &f); err != nil {
			return false
		}
		var got Frame
		if err := ReadFrame(&buf, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(f, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	f := &Frame{Type: TypeChunk, Template: strings.Repeat("x", MaxFrame+1), HasTemplate: true}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var f Frame
	if err := ReadFrame(bytes.NewReader(hdr[:]), &f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge (and no giant allocation)", err)
	}
}

func TestReadFrameRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TypePing, ID: 42}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, 4, len(whole) - 1} {
		var f Frame
		err := ReadFrame(bytes.NewReader(whole[:cut]), &f)
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	payload := []byte("!!! definitely not json !!!")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var f Frame
	if err := ReadFrame(&buf, &f); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func TestChunkFrameRoundTrip(t *testing.T) {
	tmpl, err := template.Parse("template rt { weight Mode { a: 3; b: 7; } }")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []*template.Template{tmpl, nil} {
		var f Frame
		fillChunkFrame(&f, 7, sim.RemoteChunk{Unit: "iounit", Template: tc, Seed: 99, Lo: 8, Hi: 24})
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, &f); err != nil {
			t.Fatal(err)
		}
		var got Frame
		if err := ReadFrameV2(&buf, &got); err != nil {
			t.Fatal(err)
		}
		back, err := chunkTemplate(&got)
		if err != nil {
			t.Fatal(err)
		}
		if tc == nil {
			if back != nil {
				t.Fatal("nil template did not survive")
			}
			continue
		}
		if back.String() != tc.String() || back.Fingerprint() != tc.Fingerprint() {
			t.Fatalf("template diverged:\n%s\nvs\n%s", back.String(), tc.String())
		}
	}
}

// TestHandshakeVersionRefusal drives the server handshake directly: a
// hello that offers any codec version but ProtocolVersion (or speaks
// another handshake framing) gets an error frame naming both versions,
// counts as refused, and opens no session; a hello offering the
// current version — including one byte-identical to what default
// builds have always sent — is welcomed and the session speaks the
// binary codec.
func TestHandshakeVersionRefusal(t *testing.T) {
	hello := func(version, max int) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Frame{Type: TypeHello, Version: version, Max: max}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A hello byte for byte as default builds from before the
	// exact-version handshake send it.
	legacyHello := []byte(`{"t":"hello","v":1,"max":3,"build":"0123456789ab"}`)
	legacyHello = append(binary.BigEndian.AppendUint32(nil, uint32(len(legacyHello))), legacyHello...)
	cur := fmt.Sprintf("worker speaks handshake v%d protocol version %d", handshakeVersion, ProtocolVersion)
	cases := []struct {
		name    string
		hello   []byte
		welcome bool
		errWant []string // substrings of the refusal
	}{
		{"no_max", hello(handshakeVersion, 0), false, []string{"protocol version 0", cur}},
		{"v1_capped", hello(handshakeVersion, 1), false, []string{"protocol version 1", cur}},
		{"v2_capped", hello(handshakeVersion, 2), false, []string{"protocol version 2", cur}},
		{"future", hello(handshakeVersion, ProtocolVersion+1), false,
			[]string{fmt.Sprintf("protocol version %d", ProtocolVersion+1), cur}},
		{"future_handshake", hello(handshakeVersion+1, ProtocolVersion), false,
			[]string{fmt.Sprintf("handshake v%d", handshakeVersion+1), fmt.Sprintf("handshake v%d", handshakeVersion)}},
		{"no_handshake_version", hello(0, ProtocolVersion), false, []string{"handshake v0"}},
		{"current", hello(handshakeVersion, ProtocolVersion), true, nil},
		{"legacy_default_bytes", legacyHello, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			srv := NewServer(ServerOptions{Capacity: 1, Rec: rec})
			defer srv.Shutdown()
			client, server := net.Pipe()
			defer client.Close()
			served := make(chan struct{})
			go func() {
				srv.ServeConn(server)
				close(served)
			}()
			client.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := client.Write(tc.hello); err != nil {
				t.Fatal(err)
			}
			var f Frame
			if err := ReadFrame(client, &f); err != nil {
				t.Fatal(err)
			}
			if tc.welcome {
				if f.Type != TypeWelcome || f.Version != handshakeVersion || f.Max != ProtocolVersion {
					t.Fatalf("welcome = %+v", f)
				}
				// The session speaks the binary codec: a ping gets a pong.
				cdc := &codec{}
				if err := cdc.write(client, &Frame{Type: TypePing, ID: 77}); err != nil {
					t.Fatal(err)
				}
				var pong Frame
				if err := cdc.read(client, &pong); err != nil {
					t.Fatal(err)
				}
				if pong.Type != TypePong || pong.ID != 77 {
					t.Fatalf("pong = %+v", pong)
				}
				if g := rec.Metrics.Snapshot().Gauges["farm.server.sessions"]; g != 1 {
					t.Fatalf("farm.server.sessions = %d mid-session, want 1", g)
				}
				client.Close()
			} else {
				if f.Type != TypeError {
					t.Fatalf("refusal frame = %+v, want error", f)
				}
				for _, want := range tc.errWant {
					if !strings.Contains(f.Err, want) {
						t.Fatalf("refusal %q does not name %q", f.Err, want)
					}
				}
			}
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("ServeConn did not return")
			}
			snap := rec.Metrics.Snapshot()
			wantRefused := uint64(1)
			if tc.welcome {
				wantRefused = 0
			}
			if got := snap.Counters["farm.server.refused"]; got != wantRefused {
				t.Fatalf("farm.server.refused = %d, want %d", got, wantRefused)
			}
			if g := snap.Gauges["farm.server.sessions"]; g != 0 {
				t.Fatalf("farm.server.sessions = %d after the connection ended, want 0", g)
			}
			if g := snap.Gauges["farm.server.conns"]; g != 0 {
				t.Fatalf("farm.server.conns = %d after the connection ended, want 0", g)
			}
		})
	}
}

// fakeWorker is a dial function whose peer reads the hello and answers
// with the given frame, then serves pings until the client hangs up.
func fakeWorker(answer func() Frame) func(string) (net.Conn, error) {
	return func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			var f Frame
			if ReadFrame(server, &f) != nil {
				return
			}
			a := answer()
			if WriteFrame(server, &a) != nil || a.Type != TypeWelcome {
				return
			}
			c := &codec{}
			for c.read(server, &f) == nil {
				if f.Type == TypePing && c.write(server, &Frame{Type: TypePong, ID: f.ID}) != nil {
					return
				}
			}
		}()
		return client, nil
	}
}

// TestDialVersionMismatch checks the dispatcher maps every refusing,
// alien, or mismatched peer onto ErrVersionMismatch, and accepts a
// worker that echoes its version.
func TestDialVersionMismatch(t *testing.T) {
	welcome := func(version, max int) func() Frame {
		return func() Frame {
			return Frame{Type: TypeWelcome, Version: version, Max: max, Capacity: 1}
		}
	}
	cases := []struct {
		name   string
		answer func() Frame
		ok     bool
	}{
		{"future_handshake", welcome(handshakeVersion+1, ProtocolVersion), false},
		{"no_max_worker", welcome(handshakeVersion, 0), false},
		{"v1_capped_worker", welcome(handshakeVersion, 1), false},
		{"v2_capped_worker", welcome(handshakeVersion, 2), false},
		{"overbidding_worker", welcome(handshakeVersion, ProtocolVersion+7), false},
		{"refusing_worker", func() Frame {
			return Frame{Type: TypeError, Err: "protocol version 3 offered, worker speaks version 4"}
		}, false},
		{"alien_peer", func() Frame { return Frame{Type: TypePong} }, false},
		{"current_worker", welcome(handshakeVersion, ProtocolVersion), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(nil, Options{Dial: fakeWorker(tc.answer)})
			defer d.Close()
			w, capacity, err := d.dial(0, "fake")
			if !tc.ok {
				if !errors.Is(err, ErrVersionMismatch) {
					t.Fatalf("err = %v, want ErrVersionMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer w.conn.Close()
			if capacity != 1 {
				t.Fatalf("capacity = %d, want 1", capacity)
			}
			if err := d.ping(w); err != nil {
				t.Fatalf("ping on the welcomed session: %v", err)
			}
		})
	}
}

// TestHandshakeNegotiation drives the server handshake with the hello
// this build's dispatcher sends and checks what the welcome settles for
// the session: the one codec version, the worker's capacity and build,
// the peer's build in the session log, and a session that speaks the
// binary codec afterwards.
func TestHandshakeNegotiation(t *testing.T) {
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{Capacity: 3, Log: logger})
	defer srv.Shutdown()
	client, server := net.Pipe()
	defer client.Close()
	go srv.ServeConn(server)
	client.SetDeadline(time.Now().Add(5 * time.Second))
	hello := &Frame{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion, Build: "peer0build12"}
	if err := WriteFrame(client, hello); err != nil {
		t.Fatal(err)
	}
	var welcome Frame
	if err := ReadFrame(client, &welcome); err != nil {
		t.Fatal(err)
	}
	if welcome.Type != TypeWelcome || welcome.Version != handshakeVersion || welcome.Max != ProtocolVersion {
		t.Fatalf("welcome = %+v", welcome)
	}
	if welcome.Capacity != 3 {
		t.Fatalf("welcome capacity = %d, want 3", welcome.Capacity)
	}
	if welcome.Build != buildinfo.Read().Short() {
		t.Fatalf("welcome build = %q, want %q", welcome.Build, buildinfo.Read().Short())
	}
	cdc := &codec{}
	if err := cdc.write(client, &Frame{Type: TypePing, ID: 41}); err != nil {
		t.Fatal(err)
	}
	var pong Frame
	if err := cdc.read(client, &pong); err != nil {
		t.Fatal(err)
	}
	if pong.Type != TypePong || pong.ID != 41 {
		t.Fatalf("pong = %+v", pong)
	}
	if !strings.Contains(logs.String(), "peer_build=peer0build12") {
		t.Fatalf("session log lacks the peer build:\n%s", logs.String())
	}
}

// TestDialNegotiation drives the dispatcher's side against a real
// worker of this build: the dial settles on the worker's capacity,
// counts the connection, and hands back a session that answers pings.
func TestDialNegotiation(t *testing.T) {
	srv := NewServer(ServerOptions{Capacity: 3})
	defer srv.Shutdown()
	dial := func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return client, nil
	}
	rec := obs.NewRecorder()
	d := New(nil, Options{Dial: dial, Rec: rec})
	defer d.Close()
	w, capacity, err := d.dial(0, "local")
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.Close()
	if capacity != 3 {
		t.Fatalf("capacity = %d, want 3", capacity)
	}
	if d.LiveConns() != 1 {
		t.Fatalf("LiveConns = %d, want 1", d.LiveConns())
	}
	if err := d.ping(w); err != nil {
		t.Fatalf("ping on the dialed session: %v", err)
	}
}

// syncBuffer is a bytes.Buffer safe to read while a logger writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestVersionRefusalLoggedOnce checks a mismatched worker is visible
// at Warn — it would otherwise only show as a run quietly falling back
// to local lanes — without flooding the log: one line per worker while
// it keeps refusing, and one more only after it has connected in
// between.
func TestVersionRefusalLoggedOnce(t *testing.T) {
	var old atomic.Bool // the worker answers like a -proto 2 build
	old.Store(true)
	dial := fakeWorker(func() Frame {
		max := ProtocolVersion
		if old.Load() {
			max = 2
		}
		return Frame{Type: TypeWelcome, Version: handshakeVersion, Max: max, Capacity: 1}
	})
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	// Record the dispatcher's connections so the test can sever them,
	// as a worker restart would.
	var mu sync.Mutex
	var conns []net.Conn
	rec := obs.NewRecorder()
	opts := testOptions(func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return c, err
	}, rec)
	opts.BackoffJitter = -1
	opts.Log = logger
	d := New([]string{"old-worker:9666"}, opts)
	defer d.Close()

	warns := func() []string {
		var out []string
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, "level=WARN") {
				out = append(out, line)
			}
		}
		return out
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; log:\n%s", what, logs.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	fails := func() uint64 { return rec.Metrics.Snapshot().Counters["farm.dial_failures"] }

	waitFor("repeated refusals", func() bool { return fails() >= 4 })
	w := warns()
	if len(w) != 1 {
		t.Fatalf("%d Warn lines over %d refusals, want 1:\n%s", len(w), fails(), logs.String())
	}
	for _, want := range []string{"worker=old-worker:9666", "version=3", "protocol v2"} {
		if !strings.Contains(w[0], want) {
			t.Fatalf("refusal warning %q lacks %q", w[0], want)
		}
	}

	// The worker is upgraded, connects, then restarts rolled back: the
	// next refusal is a new outage and warns again, once.
	old.Store(false)
	waitFor("a connection", func() bool { return d.LiveConns() > 0 })
	old.Store(true)
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
	base := fails()
	waitFor("refusals after the rollback", func() bool { return fails() >= base+4 })
	if w := warns(); len(w) != 2 {
		t.Fatalf("%d Warn lines after a connect and a second outage, want 2:\n%s", len(w), logs.String())
	}
}
