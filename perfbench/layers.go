package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// Everything in this file observes the program from outside, through
// the interfaces it already accepts: a net.Listener whose connections
// count and parse the bytes the servers read and write, an
// http.Handler and http.RoundTripper around the HTTP path, a
// service.Store around the registry's store, and the model's public
// predict hook. None of it is installed in an untraced run except the
// store wrapper, which only counts the online pipeline's decisions.

type layerKind int

const (
	layerWire layerKind = iota
	layerHTTP
)

// Wire frame header layout (see internal/wire): magic u32 | version u8 |
// type u8 | reserved u16 | request id u64 | payload length u32.
const (
	frameHeader     = 20
	msgPredict      = 0x01
	msgPredictBatch = 0x02
	payloadKeep     = 8 << 10 // payload prefix kept to find the first statement
)

// tracerCounters are the always-on counts of a traced run.
type tracerCounters struct {
	wireCalls, wireBytes, wirePredicts float64
	httpCalls, httpBytes, httpPredicts float64
}

func (c tracerCounters) minus(o tracerCounters) tracerCounters {
	return tracerCounters{
		wireCalls: c.wireCalls - o.wireCalls, wireBytes: c.wireBytes - o.wireBytes,
		wirePredicts: c.wirePredicts - o.wirePredicts,
		httpCalls:    c.httpCalls - o.httpCalls, httpBytes: c.httpBytes - o.httpBytes,
		httpPredicts: c.httpPredicts - o.httpPredicts,
	}
}

// tracer collects spans and counts at the layer boundaries. Span times
// are nanoseconds since base.
type tracer struct {
	base time.Time
	on   atomic.Bool // record spans (counts are always kept)

	wireCalls, wireBytes, wirePredicts atomic.Int64
	httpCalls, httpBytes, httpPredicts atomic.Int64
	connSeq                            atomic.Uint64

	mu       sync.Mutex
	frames   []*frameEv
	handlers map[string]span // by X-Request-ID
	handled  []int64         // every traced /v1/predict, ns
	hooks    map[uint64][]int64
	calls    []callEv
}

// frameEv is one wire predict request seen by the server: read is when
// its last byte was read, write when its reply frame was written.
type frameEv struct {
	conn        uint64
	id          uint64
	hash        uint64
	read, write int64
}

// callEv is one request as the benchmark saw it.
type callEv struct {
	key             string // phase-index, also the HTTP X-Request-ID
	phase           string
	hash            uint64
	due, start, end int64
}

// span is one recorded interval.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), handlers: map[string]span{}, hooks: map[uint64][]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) counters() tracerCounters {
	return tracerCounters{
		wireCalls: float64(t.wireCalls.Load()), wireBytes: float64(t.wireBytes.Load()),
		wirePredicts: float64(t.wirePredicts.Load()),
		httpCalls:    float64(t.httpCalls.Load()), httpBytes: float64(t.httpBytes.Load()),
		httpPredicts: float64(t.httpPredicts.Load()),
	}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// predictHook is installed on the served model: it marks when
// inference of a statement starts.
func (t *tracer) predictHook(stmt string) {
	if !t.on.Load() {
		return
	}
	at := t.now()
	h := hashString(stmt)
	t.mu.Lock()
	t.hooks[h] = append(t.hooks[h], at)
	t.mu.Unlock()
}

// call records one benchmark request; due, start and end are offsets
// from the phase's own base.
func (t *tracer) call(phase string, i int, stmt string, due, start, end int64, base time.Time) {
	off := int64(base.Sub(t.base))
	ev := callEv{key: requestKey(phase, i), phase: phase, hash: hashString(stmt),
		due: due + off, start: start + off, end: end + off}
	t.mu.Lock()
	t.calls = append(t.calls, ev)
	t.mu.Unlock()
}

func requestKey(phase string, i int) string { return fmt.Sprintf("%s-%d", phase, i) }

type requestIDKey struct{}

// withRequestID tags ctx so the HTTP round tripper sends X-Request-ID.
func withRequestID(ctx context.Context, phase string, i int) context.Context {
	return context.WithValue(ctx, requestIDKey{}, requestKey(phase, i))
}

// wrapListener counts (and, for the wire protocol, parses) every byte
// the server reads and writes on accepted connections.
func (t *tracer) wrapListener(ln net.Listener, kind layerKind) net.Listener {
	return &tracedListener{Listener: ln, t: t, kind: kind}
}

type tracedListener struct {
	net.Listener
	t    *tracer
	kind layerKind
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, kind: l.kind, id: l.t.connSeq.Add(1), pending: map[uint64]*frameEv{}}, nil
}

type tracedConn struct {
	net.Conn
	t    *tracer
	kind layerKind
	id   uint64

	rd, wr frameScanner // wire only; rd is used by the read loop, wr under mu

	mu      sync.Mutex
	pending map[uint64]*frameEv
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.kind == layerHTTP {
		c.t.httpCalls.Add(1)
		c.t.httpBytes.Add(int64(n))
		return n, err
	}
	c.t.wireCalls.Add(1)
	c.t.wireBytes.Add(int64(n))
	at := c.t.now()
	c.rd.feed(b[:n], func(typ byte, id uint64, pay []byte) {
		if typ != msgPredict && typ != msgPredictBatch {
			return
		}
		c.t.wirePredicts.Add(1)
		if !c.t.on.Load() {
			return
		}
		ev := &frameEv{conn: c.id, id: id, hash: firstStatementHash(typ, pay), read: at}
		c.mu.Lock()
		c.pending[id] = ev
		c.mu.Unlock()
	})
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.kind == layerHTTP {
		c.t.httpCalls.Add(1)
		c.t.httpBytes.Add(int64(n))
		return n, err
	}
	c.t.wireCalls.Add(1)
	c.t.wireBytes.Add(int64(n))
	at := c.t.now()
	c.mu.Lock()
	c.wr.feed(b[:n], func(_ byte, id uint64, _ []byte) {
		if ev, ok := c.pending[id]; ok {
			delete(c.pending, id)
			ev.write = at
			c.t.mu.Lock()
			c.t.frames = append(c.t.frames, ev)
			c.t.mu.Unlock()
		}
	})
	c.mu.Unlock()
	return n, err
}

// frameScanner splits a byte stream into wire frames.
type frameScanner struct {
	hdr [frameHeader]byte
	hn  int
	rem int
	typ byte
	id  uint64
	pay []byte
}

func (f *frameScanner) feed(b []byte, done func(typ byte, id uint64, pay []byte)) {
	for len(b) > 0 {
		if f.hn < frameHeader {
			n := copy(f.hdr[f.hn:], b)
			f.hn += n
			b = b[n:]
			if f.hn < frameHeader {
				return
			}
			f.typ = f.hdr[5]
			f.id = binary.LittleEndian.Uint64(f.hdr[8:16])
			f.rem = int(binary.LittleEndian.Uint32(f.hdr[16:20]))
			f.pay = f.pay[:0]
			if f.rem == 0 {
				done(f.typ, f.id, f.pay)
				f.hn = 0
			}
			continue
		}
		n := min(f.rem, len(b))
		if keep := payloadKeep - len(f.pay); keep > 0 {
			f.pay = append(f.pay, b[:min(n, keep)]...)
		}
		f.rem -= n
		b = b[n:]
		if f.rem == 0 {
			done(f.typ, f.id, f.pay)
			f.hn = 0
		}
	}
}

// firstStatementHash hashes the first statement of a predict payload:
// model u16+bytes | deadline_ms u32 | [count u32 |] statement u32+bytes.
func firstStatementHash(typ byte, p []byte) uint64 {
	if len(p) < 2 {
		return 0
	}
	off := 2 + int(binary.LittleEndian.Uint16(p)) + 4
	if typ == msgPredictBatch {
		off += 4
	}
	if len(p) < off+4 {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if len(p) < off+n {
		return 0
	}
	return hashString(string(p[off : off+n]))
}

// wrapHandler times /v1/predict requests by their X-Request-ID.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/predict" {
			h.ServeHTTP(w, r)
			return
		}
		t.httpPredicts.Add(1)
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		t.handled = append(t.handled, end-start)
		if id := r.Header.Get("X-Request-ID"); id != "" {
			t.handlers[id] = span{ID: id, Name: "http.handler", Start: start, End: end}
		}
		t.mu.Unlock()
	})
}

// wrapRoundTripper stamps the benchmark's request key as X-Request-ID.
func (t *tracer) wrapRoundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if id, ok := r.Context().Value(requestIDKey{}).(string); ok {
			r = r.Clone(r.Context())
			r.Header.Set("X-Request-ID", id)
		}
		return next.RoundTrip(r)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// watchedStore wraps the registry's store. It always records when the
// online pipeline persists a window decision ("online/<model>" keys),
// which is how a run knows a decision is durable without polling the
// service; in a traced run it also times every Put.
type watchedStore struct {
	service.Store
	traced bool

	mu       sync.Mutex
	onlineAt []time.Time
	putDur   []int64
	putBytes int64
	notify   chan struct{}
}

func newWatchedStore(s service.Store, traced bool) *watchedStore {
	return &watchedStore{Store: s, traced: traced, notify: make(chan struct{}, 1)}
}

func (w *watchedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := w.Store.Put(key, data)
	end := time.Now()
	w.mu.Lock()
	if w.traced {
		w.putBytes += int64(len(data))
		w.putDur = append(w.putDur, int64(end.Sub(start)))
	}
	online := err == nil && strings.HasPrefix(key, "online/")
	if online {
		w.onlineAt = append(w.onlineAt, end)
	}
	w.mu.Unlock()
	if online {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
	return err
}

// decisions returns the completion times of the pipeline's persisted
// decisions so far.
func (w *watchedStore) decisions() []time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Time(nil), w.onlineAt...)
}

// storeStats is the traced Put summary.
func (w *watchedStore) storeStats() (puts int, bytes int64, durs []int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.putDur), w.putBytes, append([]int64(nil), w.putDur...)
}

// breakdown is one traced request split at the layer boundaries.
type breakdown struct {
	total     int64 // due → reply (the client-observed latency)
	gen       int64 // due → client call (generator lateness and hand-off)
	client    int64 // client call minus the server span (codec, sockets, scheduling)
	serveWait int64 // server received → inference started (decode, admission, queue)
	forward   int64 // inference started → reply written (tokenize, forward, reply encode)
}

// analyze joins the recorded events of one phase into per-request
// breakdowns and appends their spans to out (at most keep requests).
func (t *tracer) analyze(phase string, kind layerKind, keep int, out *[]span) []breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Wire frames carry no benchmark key, so they are matched to calls
	// by the first statement's hash and by time: the frame must have
	// been read while the call was in flight.
	byHash := map[uint64][]*frameEv{}
	for _, f := range t.frames {
		byHash[f.hash] = append(byHash[f.hash], f)
	}
	for _, fs := range byHash {
		sort.Slice(fs, func(i, j int) bool { return fs[i].read < fs[j].read })
	}
	for _, hs := range t.hooks {
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	}
	used := map[*frameEv]bool{}
	var bds []breakdown
	for _, c := range t.calls {
		if c.phase != phase {
			continue
		}
		var srv span
		var ok bool
		if kind == layerHTTP {
			srv, ok = t.handlers[c.key]
		} else {
			for _, f := range byHash[c.hash] {
				if f.read >= c.start && f.write <= c.end && !used[f] {
					used[f] = true
					srv = span{ID: fmt.Sprintf("wire-%d-%d", f.conn, f.id), Name: "wire.server", Start: f.read, End: f.write}
					ok = true
					break
				}
			}
		}
		if !ok {
			continue
		}
		hooks := t.hooks[c.hash]
		k := sort.Search(len(hooks), func(i int) bool { return hooks[i] >= srv.Start })
		if k == len(hooks) || hooks[k] > srv.End {
			continue
		}
		hook := hooks[k]
		bd := breakdown{
			total:     c.end - c.due,
			gen:       c.start - c.due,
			client:    (c.end - c.start) - (srv.End - srv.Start),
			serveWait: hook - srv.Start,
			forward:   srv.End - hook,
		}
		bds = append(bds, bd)
		if len(bds) <= keep {
			id := srv.ID
			if kind == layerHTTP {
				id = c.key
			}
			*out = append(*out,
				span{ID: id, Name: "request", Start: c.due, End: c.end},
				span{ID: id, Name: "gen", Parent: "request", Start: c.due, End: c.start},
				span{ID: id, Name: "client", Parent: "request", Start: c.start, End: c.end},
				span{ID: id, Name: srv.Name, Parent: "client", Start: srv.Start, End: srv.End},
				span{ID: id, Name: "serve.wait", Parent: srv.Name, Start: srv.Start, End: hook},
				span{ID: id, Name: "core.forward", Parent: srv.Name, Start: hook, End: srv.End},
			)
		}
	}
	return bds
}

// serverSpans returns the inclusive server-side durations recorded for
// a transport since the last reset (all predict requests, matched or
// not).
func (t *tracer) serverSpans(kind layerKind) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	if kind == layerHTTP {
		return append(out, t.handled...)
	}
	for _, f := range t.frames {
		out = append(out, f.write-f.read)
	}
	return out
}

// reset drops recorded events (counts are kept).
func (t *tracer) reset() {
	t.mu.Lock()
	t.frames = nil
	t.handlers = map[string]span{}
	t.handled = nil
	t.hooks = map[uint64][]int64{}
	t.calls = nil
	t.mu.Unlock()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
