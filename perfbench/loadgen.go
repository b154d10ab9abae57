package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type opKind uint8

const (
	explainOp opKind = iota
	observeOp
)

func (k opKind) path() string {
	if k == observeOp {
		return "/observe"
	}
	return "/explain"
}

// op is one request of a phase. An explain's id indexes the explain table
// (the hot set, then the fresh pool); an observe's id indexes the observe
// pool.
type op struct {
	kind opKind
	id   int32
	due  time.Duration // open loop: offset of the send time from the phase start
}

// sample is the outcome of one request.
type sample struct {
	op
	status int
	cache  string        // X-RK-Cache: hit, miss, coalesced or bypass
	hash   uint64        // FNV-64a of the response body
	lat    time.Duration // open loop: from the due time; closed loop: from the send
	end    time.Duration // offset of the last response byte from the phase start
	late   time.Duration // open loop: dispatch time minus due time
	err    error         // transport error, or set by verification
}

// failed reports a transport error, a status other than 200 or 409, or a
// failed verification.
func (s *sample) failed() bool {
	return s.err != nil || (s.status != http.StatusOK && s.status != http.StatusConflict)
}

// phase is everything one phase sent and got back.
type phase struct {
	name      string
	samples   []sample
	bodies    map[uint64][]byte // distinct response bodies by hash
	wall      time.Duration     // phase start to the last response
	exhausted bool              // the closed loop ran out of fresh instances and stopped early
	open      bool              // sent on a schedule: samples carry their lateness
	discarded bool              // its lifetime was run again: the generator ran late
	serverCPU []float64         // closed loop: the server's CPU seconds at the start and at each window's end
	genCPU    []float64         // closed loop: the generator's, read beside each of serverCPU
}

// target sends bodies to one server.
type target struct {
	addr   string // host:port
	bodyOf func(op) []byte
}

// conn is one keep-alive HTTP/1.1 connection driven by the one goroutine
// that uses it: it writes a request and reads the response in place, with
// none of net/http's per-connection goroutines between the generator and
// the socket, so the generator spends little CPU and few wake-ups of its
// own on each request.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	buf  []byte
}

// post sends one request and reads the whole response. After a transport
// error the connection is closed and the next post dials again.
func (c *conn) post(path string, body []byte) (status int, cache string, resp []byte, err error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, "", nil, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	c.buf = append(c.buf[:0], "POST "...)
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: "...)
	c.buf = append(c.buf, c.addr...)
	c.buf = append(c.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, "", nil, errors.Join(err, c.close())
	}
	if _, err := c.nc.Write(c.buf); err != nil {
		return 0, "", nil, errors.Join(err, c.close())
	}
	r, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", nil, errors.Join(err, c.close())
	}
	resp, err = io.ReadAll(r.Body)
	if cerr := r.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil || r.Close {
		err = errors.Join(err, c.close())
	}
	return r.StatusCode, r.Header.Get("X-RK-Cache"), resp, err
}

func (c *conn) close() error {
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

// send performs one request of o over c and hashes the response.
func (t *target) send(c *conn, o op, body []byte) (sample, []byte) {
	s := sample{op: o}
	var b []byte
	s.status, s.cache, b, s.err = c.post(o.kind.path(), body)
	s.hash = hashBytes(b)
	return s, b
}

// conns returns n unconnected connections to the target.
func (t *target) conns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{addr: t.addr}
	}
	return cs
}

// closeAll closes connections whose goroutines have finished.
func closeAll(cs []*conn) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.close())
	}
	return errors.Join(errs...)
}

// recordBody keeps the first body seen per hash.
func recordBody(bodies map[uint64][]byte, s sample, b []byte) {
	if s.err == nil && s.kind == explainOp {
		if _, ok := bodies[s.hash]; !ok {
			bodies[s.hash] = b
		}
	}
}

// closedLoop runs clients that each send their next explain only after the
// previous answer arrived, until dur has passed or next runs out of
// instances. Requests in flight at the end are awaited, not dropped. When
// probe is not nil, one goroutine of its own calls it at the phase start
// and at the end of each whole window of dur.
func (t *target) closedLoop(clients int, dur time.Duration, next func(client int) (op, bool), probe func()) (*phase, error) {
	cs := t.conns(clients)
	start := time.Now()
	finished, probed := make(chan struct{}), make(chan struct{})
	if probe == nil {
		close(probed)
	} else {
		probe()
		go func() {
			defer close(probed)
			for k := time.Duration(1); k*window <= dur; k++ {
				select {
				case <-time.After(time.Until(start.Add(k * window))):
					probe()
				case <-finished:
					if time.Since(start) >= k*window {
						probe() // the clients ended with this window
					}
					return
				}
			}
		}()
	}
	per := make([][]sample, clients)
	bodies := make([]map[uint64][]byte, clients)
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = map[uint64][]byte{}
			for time.Since(start) < dur {
				o, ok := next(i)
				if !ok {
					exhausted.Store(true)
					return
				}
				t0 := time.Now()
				s, b := t.send(cs[i], o, t.bodyOf(o))
				s.lat, s.end = time.Since(t0), time.Since(start)
				per[i] = append(per[i], s)
				recordBody(bodies[i], s, b)
			}
		}(i)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), bodies: map[uint64][]byte{}, exhausted: exhausted.Load()}
	close(finished)
	<-probed
	for i := range per {
		p.samples = append(p.samples, per[i]...)
		for h, b := range bodies[i] {
			p.bodies[h] = b
		}
	}
	return p, closeAll(cs)
}

// openLoop sends ops at their due times over at most conns connections,
// whether or not earlier answers have arrived, and waits for every answer.
// Latency runs from the due time, so a stall charges every request it
// delays. One locked OS thread dispatches with nanosleep, whose wake-up
// error is tens of microseconds where the Go timer's is about a
// millisecond.
func (t *target) openLoop(conns int, ops []op) (*phase, error) {
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		bodies[i] = t.bodyOf(o)
	}
	cs := t.conns(conns)
	samples := make([]sample, len(ops))
	late := make([]time.Duration, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	got := make([]map[uint64][]byte, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = map[uint64][]byte{}
			for i := range queue {
				s, b := t.send(cs[w], ops[i], bodies[i])
				s.end = time.Since(start)
				s.lat = s.end - ops[i].due
				samples[i] = s
				recordBody(got[w], s, b)
			}
		}(w)
	}
	dispatchErr := dispatch(start, ops, late, queue)
	wg.Wait()
	p := &phase{samples: samples, bodies: map[uint64][]byte{}, wall: time.Since(start), open: true}
	for i := range samples {
		samples[i].late = late[i]
	}
	for _, m := range got {
		for h, b := range m {
			p.bodies[h] = b
		}
	}
	return p, errors.Join(dispatchErr, closeAll(cs))
}

// dispatch releases each op to the queue at its due time and records how
// late it was released. It closes the queue when done.
func dispatch(start time.Time, ops []op, late []time.Duration, queue chan<- int) error {
	defer close(queue)
	// Unlocked again before returning: a thread that exits would fire the
	// servers' parent-death signal.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, o := range ops {
		due := start.Add(o.due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
				return fmt.Errorf("dispatch: nanosleep: %w", err)
			}
		}
		late[i] = time.Since(due)
		queue <- i
	}
	return nil
}

// schedule lays out n ops at a fixed rate starting at offset 0.
func schedule(n int, rate float64, kind opKind, id func(i int) int32) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: kind, id: id(i), due: time.Duration(float64(i) / rate * float64(time.Second))}
	}
	return ops
}

// mergeSchedules interleaves two schedules by due time.
func mergeSchedules(a, b []op) []op {
	out := make([]op, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i].due <= b[j].due) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// picker draws explain instances: with probability hotShare one of the hot
// set, otherwise the next fresh instance, which no earlier request of this
// server's lifetime has used. Each closed-loop client has its own seeded
// stream; the fresh cursor is shared.
type picker struct {
	hotShare float64
	hot      int
	fresh    int
	cursor   atomic.Int64
	rngs     []*rand.Rand
}

func newPicker(seed int64, clients int, hotShare float64, hot, fresh int) *picker {
	p := &picker{hotShare: hotShare, hot: hot, fresh: fresh}
	for i := 0; i < clients; i++ {
		p.rngs = append(p.rngs, rand.New(rand.NewSource(seed*1009+int64(i))))
	}
	return p
}

// next returns client's next explain; false once the fresh pool is spent.
func (p *picker) next(client int) (op, bool) {
	r := p.rngs[client]
	if r.Float64() < p.hotShare {
		return op{kind: explainOp, id: int32(r.Intn(p.hot))}, true
	}
	n := p.cursor.Add(1) - 1
	if n >= int64(p.fresh) {
		return op{}, false
	}
	return op{kind: explainOp, id: int32(p.hot) + int32(n)}, true
}
