package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
	"github.com/xai-db/relativekeys/internal/service"
)

// span is what the timers saw of one request: the handler's entry and exit,
// and the first solve and the monitor call made on its behalf.
type span struct {
	path                 string
	entry, exit          time.Time
	solveStart, solveEnd time.Time // zero when the request did not solve
	monStart             time.Time // zero when the request did not reach the monitor
	cache                string
	status               int
}

type spanKey struct{}

// recorder times the layers of an in-process server from outside, through
// its public seams: Handler(), and Config.Solve, Config.Monitor and
// Config.WAL. Nothing inside the program is instrumented.
type recorder struct {
	active atomic.Bool // record only while a measured phase runs

	mu        sync.Mutex
	spans     []span          // guarded by mu
	solves    []time.Duration // guarded by mu
	noKey     int             // guarded by mu
	degraded  int             // guarded by mu
	monitor   []time.Duration // guarded by mu
	walWrites []time.Duration // guarded by mu
	walBytes  int64           // guarded by mu
	fsyncs    []time.Duration // guarded by mu
}

// recorderMark is what a recorder held at one moment.
type recorderMark struct {
	spans, solves, monitor, walWrites, fsyncs int
	noKey, degraded                           int
	walBytes                                  int64
}

func (rc *recorder) mark() recorderMark {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return recorderMark{len(rc.spans), len(rc.solves), len(rc.monitor), len(rc.walWrites), len(rc.fsyncs), rc.noKey, rc.degraded, rc.walBytes}
}

// rewind forgets everything recorded since m.
func (rc *recorder) rewind(m recorderMark) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans, rc.solves, rc.monitor = rc.spans[:m.spans], rc.solves[:m.solves], rc.monitor[:m.monitor]
	rc.walWrites, rc.fsyncs = rc.walWrites[:m.walWrites], rc.fsyncs[:m.fsyncs]
	rc.noKey, rc.degraded, rc.walBytes = m.noKey, m.degraded, m.walBytes
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps the server's handler in the request timer.
func (rc *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rc.active.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sp := &span{path: r.URL.Path, entry: time.Now()}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		sp.exit = time.Now()
		sp.status = sw.status
		sp.cache = w.Header().Get("X-RK-Cache")
		rc.mu.Lock()
		rc.spans = append(rc.spans, *sp)
		rc.mu.Unlock()
	})
}

// solve is the Solve seam: the stock lazy engine at par workers, timed. It
// runs on the requesting goroutine, so it may write the request's span.
func (rc *recorder) solve(par int) service.SolveFunc {
	return func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, a float64) (core.Key, bool, error) {
		start := time.Now()
		key, degraded, err := core.SRKAnytimePar(ctx, c, x, y, a, par)
		end := time.Now()
		if sp, ok := ctx.Value(spanKey{}).(*span); ok {
			if sp.solveStart.IsZero() {
				sp.solveStart = start
			}
			sp.solveEnd = end
		}
		if rc.active.Load() {
			rc.mu.Lock()
			rc.solves = append(rc.solves, end.Sub(start))
			if errors.Is(err, core.ErrNoKey) {
				rc.noKey++
			}
			if degraded {
				rc.degraded++
			}
			rc.mu.Unlock()
		}
		return key, degraded, err
	}
}

// timedMonitor is the Monitor seam: cceserver's drift monitor, timed on
// the observe path (recovery replays pass no span and are not counted).
type timedMonitor struct {
	inner *cce.DriftMonitor
	rc    *recorder
}

func (m *timedMonitor) ObserveCtx(ctx context.Context, li feature.Labeled) (int, error) {
	start := time.Now()
	n, err := m.inner.ObserveCtx(ctx, li)
	if sp, ok := ctx.Value(spanKey{}).(*span); ok {
		sp.monStart = start
		m.rc.mu.Lock()
		m.rc.monitor = append(m.rc.monitor, time.Since(start))
		m.rc.mu.Unlock()
	}
	return n, err
}

func (m *timedMonitor) AvgSuccinctness() float64 { return m.inner.AvgSuccinctness() }
func (m *timedMonitor) Arrivals() int            { return m.inner.Arrivals() }

// timedLog is the WriteSyncer under the WAL seam: the log file the server
// would open itself, with its writes and fsyncs timed.
type timedLog struct {
	f  *os.File
	rc *recorder
}

func (l *timedLog) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := l.f.Write(p)
	if l.rc.active.Load() {
		l.rc.mu.Lock()
		l.rc.walWrites = append(l.rc.walWrites, time.Since(start))
		l.rc.walBytes += int64(n)
		l.rc.mu.Unlock()
	}
	return n, err
}

func (l *timedLog) Sync() error {
	start := time.Now()
	err := l.f.Sync()
	if l.rc.active.Load() {
		l.rc.mu.Lock()
		l.rc.fsyncs = append(l.rc.fsyncs, time.Since(start))
		l.rc.mu.Unlock()
	}
	return err
}

// inproc is service.NewServer hosted in this process on a loopback
// listener.
type inproc struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	log    *os.File // the traced WAL's file; nil when the server opened its own
	served chan error
}

// startInProcess builds a server on a fresh copy of the seeded state with
// the Config cceserver builds from the untraced run's flags. With rc set,
// the Solve, Monitor and WAL seams and the handler are timed. It returns
// how long NewServer took to recover the seeded context.
func (s *bench) startInProcess(boot int, rc *recorder) (*inproc, time.Duration, error) {
	dir, err := stateDir(s.cfg.work, s.snap, boot)
	if err != nil {
		return nil, 0, err
	}
	cfg := service.Config{
		Schema:        s.in.schema,
		Alpha:         alpha,
		PanelSize:     panelSize,
		Retain:        s.cfg.w.retain,
		Parallelism:   s.cfg.nproc,
		StateDir:      dir,
		SnapshotEvery: snapshotEvery,
		WALSyncEvery:  walSyncEvery,
	}
	p := &inproc{dir: dir, served: make(chan error, 1)}
	if rc != nil {
		cfg.Solve = rc.solve(s.cfg.nproc)
		cfg.SolverTag = fmt.Sprintf("lazy/p=%d", s.cfg.nproc) // the stock server's tag, so cache keys match
		mon, err := cce.NewDriftMonitor(s.in.schema, alpha, panelSize, 1)
		if err != nil {
			return nil, 0, err
		}
		cfg.Monitor = &timedMonitor{inner: mon, rc: rc}
		if p.log, err = os.OpenFile(filepath.Join(dir, "observations.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, 0, err
		}
		cfg.WAL = persist.NewWAL(&timedLog{f: p.log, rc: rc})
	}
	start := time.Now()
	srv, err := service.NewServer(cfg)
	recovered := time.Since(start)
	if err != nil {
		return nil, 0, errors.Join(err, p.closeLog())
	}
	if n := srv.ContextSize(); n != len(s.in.context) {
		return nil, 0, errors.Join(fmt.Errorf("server recovered %d rows, want %d", n, len(s.in.context)), srv.Close(), p.closeLog())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, srv.Close(), p.closeLog())
	}
	h := srv.Handler()
	if rc != nil {
		h = rc.handler(h)
	}
	p.srv, p.hs, p.base = srv, &http.Server{Handler: h}, "http://"+ln.Addr().String()
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, recovered, nil
}

func (p *inproc) closeLog() error {
	if p.log == nil {
		return nil
	}
	return p.log.Close()
}

// stop drains the listener, closes the server (its final snapshot
// included) and removes its state.
func (p *inproc) stop(ctx context.Context) error {
	err := p.hs.Shutdown(ctx)
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, p.srv.Close(), p.closeLog(), os.RemoveAll(p.dir))
}

// snapshotCount reads rk_snapshot_save_seconds_count from /metrics.
func snapshotCount(ctx context.Context, base string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := opsClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side close
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "rk_snapshot_save_seconds_count "); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, nil // no snapshot saved yet in this process
}

// repeatShare is the share of explains whose instance an earlier request of
// the same server lifetime already asked for.
func repeatShare(lifetimes ...*phase) (float64, int) {
	repeats, total := 0, 0
	for _, p := range lifetimes {
		seen := map[int32]bool{}
		for i := range p.samples {
			s := &p.samples[i]
			if s.kind != explainOp {
				continue
			}
			total++
			if seen[s.id] {
				repeats++
			}
			seen[s.id] = true
		}
	}
	return ratio(float64(repeats), float64(total)), total
}

// runTraced is the traced run: an untraced in-process capacity phase, then
// the workload's phases against a traced in-process server, each lifetime
// from a fresh copy of the seeded state.
func runTraced(ctx context.Context, cfg config, rep *report) error {
	t0 := time.Now()
	s, err := newBench(cfg)
	if err != nil {
		return err
	}
	rep.progress("inputs ready in %.1fs", time.Since(t0).Seconds())
	var recoveries []float64
	rc := &recorder{}
	var snapshots int64

	// The untraced lifetime is the baseline of trace.overhead_ratio; both
	// capacity lifetimes draw the same explains.
	var mark recorderMark
	var snapMark int64
	lts, _, err := runLifetimes(rep, []stage{capacityStage, capacityStage, latencyStage}, func(boot, i int, st stage) (*phase, []int, error) {
		traced := rc
		if i == 0 {
			traced = nil
		}
		mark, snapMark = rc.mark(), snapshots
		p, d, err := s.startInProcess(boot, traced)
		if err != nil {
			return nil, nil, err
		}
		recoveries = append(recoveries, d.Seconds())
		n0, err := snapshotCount(ctx, p.base)
		var lt *phase
		var sizes []int
		if err == nil {
			rc.active.Store(traced != nil)
			lt, sizes, err = s.serve(ctx, rep, st, int64(max(i, 1)), p.base, p.dir, nil)
			rc.active.Store(false)
		}
		if err == nil && traced != nil {
			var n1 int64
			if n1, err = snapshotCount(ctx, p.base); err == nil {
				snapshots += n1 - n0
			}
		}
		return lt, sizes, errors.Join(err, p.stop(ctx))
	}, func() {
		rc.rewind(mark)
		snapshots = snapMark
	})
	if err != nil {
		return err
	}
	untraced, capPhase, latPhase := lts[0], lts[1], lts[2]
	untraced.name = "untraced-" + untraced.name
	if _, err := s.verifyReads(rep, s.writeFree(capPhase, latPhase, untraced)...); err != nil {
		return err
	}
	lq, err := lateness(rep.phases)
	if err != nil {
		return err
	}
	snap, err := s.timeSnapshot()
	if err != nil {
		return err
	}

	wall := capPhase.wall + latPhase.wall
	rep.printf("per-layer metrics (traced in-process server, %s):\n", cfg.w.name)
	rep.layerMetrics(rc, wall)
	rep.add("service.recover_s", median(recoveries), "s", fmt.Sprintf("(median of %d NewServer recoveries)", len(recoveries)))
	rep.add("persist.snapshot_ms", snap, "ms", "(median of 3 SaveSnapshot of the end-of-run rows)")
	rep.add("persist.snapshot_count", float64(snapshots), "count", "(periodic snapshots during the traced phases)")
	rep.add("loadgen.late_p99_ms", lq.value, "ms", fmt.Sprintf("(p%.4g, n=%d; invalid above %v)", lq.at, lq.n, maxLate))
	share, n := repeatShare(capPhase, latPhase)
	rep.add("loadgen.repeat_share", share, "share", fmt.Sprintf("(n=%d explains)", n))
	tr, ut := verifiedRate(capPhase), verifiedRate(untraced)
	rep.add("trace.overhead_ratio", ratio(tr, ut), "ratio", fmt.Sprintf("(traced %.1f/s over untraced %.1f/s in-process explain_rps)", tr, ut))
	rep.printf("what each layer metric should move:\n")
	for _, m := range perLayer {
		rep.printf("  %-36s -> %s (on %s)\n", m.name, m.moves, m.on)
	}
	return nil
}

// verifiedRate is a closed-loop phase's verified explains per second.
func verifiedRate(p *phase) float64 {
	ok := 0
	for i := range p.samples {
		if p.samples[i].kind == explainOp && !p.samples[i].failed() {
			ok++
		}
	}
	return ratio(float64(ok), p.wall.Seconds())
}

// timeSnapshot times persist.SaveSnapshot of the end-of-run rows, median
// of three.
func (s *bench) timeSnapshot() (float64, error) {
	path := filepath.Join(s.cfg.work, "timed.snap")
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := persist.SaveSnapshot(path, s.in.schema, s.finalRows, 0); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ms), os.Remove(path)
}

// layerMetrics reports what the recorder saw over wall of traced phases.
func (r *report) layerMetrics(rc *recorder, wall time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var hit, miss, pre, post, obsAll, obsPre []time.Duration
	served, hits, coalesced, observes := 0, 0, 0, 0
	for i := range rc.spans {
		sp := &rc.spans[i]
		switch sp.path {
		case "/explain":
			if sp.cache == "" {
				continue
			}
			served++
			switch sp.cache {
			case "hit":
				hits++
				hit = append(hit, sp.exit.Sub(sp.entry))
			case "miss":
				miss = append(miss, sp.exit.Sub(sp.entry))
			case "coalesced":
				coalesced++
			}
			if !sp.solveStart.IsZero() {
				pre = append(pre, sp.solveStart.Sub(sp.entry))
				post = append(post, sp.exit.Sub(sp.solveEnd))
			}
		case "/observe":
			if sp.status != http.StatusOK {
				continue
			}
			observes++
			obsAll = append(obsAll, sp.exit.Sub(sp.entry))
			if !sp.monStart.IsZero() {
				obsPre = append(obsPre, sp.monStart.Sub(sp.entry))
			}
		}
	}
	us := time.Microsecond
	r.addDurations("service.explain_hit_us", hit, us, 50, 99)
	r.addDurations("service.explain_miss_us", miss, us, 50, 99)
	r.addDurations("service.explain_pre_solve_us", pre, us, 50, 99)
	r.addDurations("service.explain_post_solve_us", post, us, 50)
	r.add("service.cache_hit_ratio", ratio(float64(hits), float64(served)), "share", fmt.Sprintf("(%d of %d explains served)", hits, served))
	r.add("service.coalesced_ratio", ratio(float64(coalesced), float64(served)), "share", fmt.Sprintf("(%d of %d explains served)", coalesced, served))
	r.addDurations("service.observe_us", obsAll, us, 50, 99)
	r.addDurations("service.observe_pre_monitor_us", obsPre, us, 99)

	r.addDurations("core.solve_us", rc.solves, us, 50, 99)
	var busy time.Duration
	for _, d := range rc.solves {
		busy += d
	}
	r.add("core.solve_busy_share", ratio(busy.Seconds(), wall.Seconds()), "share", fmt.Sprintf("(%.3fs solving over %.3fs of traced phases)", busy.Seconds(), wall.Seconds()))
	r.add("core.solves_per_explain", ratio(float64(len(rc.solves)), float64(served)), "count", fmt.Sprintf("(%d solves, %d explains served)", len(rc.solves), served))
	r.add("core.no_key_ratio", ratio(float64(rc.noKey), float64(len(rc.solves))), "share", fmt.Sprintf("(%d of %d solves)", rc.noKey, len(rc.solves)))
	r.add("core.degraded_ratio", ratio(float64(rc.degraded), float64(len(rc.solves))), "share", fmt.Sprintf("(%d of %d solves)", rc.degraded, len(rc.solves)))

	r.addDurations("cce.monitor_observe_us", rc.monitor, us, 50, 99)
	r.addDurations("persist.wal_write_us", rc.walWrites, us, 50)
	r.addDurations("persist.wal_fsync_us", rc.fsyncs, us, 50, 99)
	r.add("persist.fsyncs_per_observe", ratio(float64(len(rc.fsyncs)), float64(observes)), "count", fmt.Sprintf("(%d fsyncs, %d observes acknowledged)", len(rc.fsyncs), observes))
	r.add("persist.wal_bytes_per_observe", ratio(float64(rc.walBytes), float64(observes)), "bytes", fmt.Sprintf("(%d bytes, %d observes acknowledged)", rc.walBytes, observes))
}

// addDurations reports percentiles of ds as name.p<P>; with no samples the
// value is 0 and says n=0.
func (r *report) addDurations(name string, ds []time.Duration, unit time.Duration, ps ...float64) {
	unitName := name[strings.LastIndex(name, "_")+1:] // the name ends in its unit: _us or _ms
	for _, p := range ps {
		full := fmt.Sprintf("%s.p%g", name, p)
		q, err := percentile(durationsIn(ds, unit), p)
		if err != nil {
			r.add(full, 0, unitName, "(n=0: no such requests in this workload)")
			continue
		}
		r.addQuantile(full, q, unitName)
	}
}
