package main

// The serve-remote workload: internal/server with default admission, in
// this process, in front of the shard coordinator, which reaches two
// supervised cmd/nlidb child processes (2 shards × 1 replica) through
// internal/procnode, with the fleet answer cache on. Load is an open loop
// over HTTP at one fixed rate with a 250 ms deadline per request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/obs"
	"nlidb/internal/procnode"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
	"nlidb/internal/shard"
)

const (
	// remoteRate is the fixed offered rate: about half the capacity
	// (≈8,200 requests/s with two connections and a warm cache on 2 vCPUs)
	// measured at the commit this benchmark was written against. It is
	// never re-derived per run.
	remoteRate = 4000.0
	// remotePool caps the number of distinct WikiSQL-style questions
	// requests draw from (Zipf-skewed); Sales has fewer than that many.
	remotePool     = 600
	remoteDeadline = 250 * time.Millisecond
	remoteShards   = 2
	// remoteSenders is the number of open-loop senders, each with its
	// own connection: one per vCPU of the machines this was written on.
	remoteSenders = 2
)

// remote is one set-up serve-remote deployment.
type remote struct {
	d     *benchdata.Domain
	sup   *procnode.Supervisor
	cl    *shard.Cluster
	ctrl  *admission.Controller
	reg   *obs.Registry
	back  *observedBackend
	srv   *http.Server
	done  chan struct{}
	url   string
	dir   string
	child []string // child base URLs
}

// setupRemote starts the children, the coordinator and the HTTP server,
// and returns once every child has passed /healthz and the server
// listens.
func setupRemote(c config, traceOn bool) (*remote, error) {
	if c.nlidb == "" {
		return nil, errors.New("serve-remote needs the cmd/nlidb binary (-nlidb)")
	}
	r := &remote{d: benchdata.Sales(dataSeed), reg: obs.NewRegistry(), done: make(chan struct{})}
	dir, err := os.MkdirTemp(c.out, "procnode-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	r.sup, err = procnode.Start(r.d.DB, procnode.Config{
		Binary: c.nlidb, Dir: dir, Shards: remoteShards, Replicas: 1, Seed: c.seed,
		ExtraArgs: []string{"-engine", "athena", "-fallback", "parse,pattern,keyword"},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting children: %w", err)
	}
	for s := 0; s < remoteShards; s++ {
		r.child = append(r.child, r.sup.Proc(s, 0).Addr())
	}
	slow := obs.NewSlowLog(250*time.Millisecond, 128)
	r.cl, err = shard.NewRemote(r.d.DB, shard.Config{
		Timeout:       5 * time.Second,
		CacheSize:     1024,
		PlanCacheSize: 256,
		Gateway:       resilient.Config{BreakerJitter: resilient.DefaultBreakerJitter(0)},
		Metrics:       r.reg,
		SlowLog:       slow,
		Traces:        obs.NewTraceStore(obs.TraceStoreConfig{SlowThreshold: 250 * time.Millisecond, SampleRate: 0.01, MaxSpans: 16384}),
		Seed:          c.seed,
		NoTrace:       !traceOn,
	}, shard.RemoteFleet{Epoch: r.sup.Map().Epoch, Addrs: r.sup.AddrFuncs()})
	if err != nil {
		r.close()
		return nil, err
	}
	r.back = &observedBackend{cl: r.cl}
	r.ctrl = admission.New(admission.Config{Metrics: r.reg})
	api := server.New(server.Config{Backend: r.back, Admission: r.ctrl, Metrics: r.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: server.Mux(api, r.reg, slow, obs.WithPage("/fleet", r.cl.FleetHandler()), obs.WithProm(r.cl.WriteProm))}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return r, nil
}

// close stops the server and the children and removes their files.
func (r *remote) close() {
	if r.srv != nil {
		r.srv.Close()
		<-r.done
	}
	if r.sup != nil {
		r.sup.Close()
	}
	os.RemoveAll(r.dir)
}

// heapMB sums this process's live heap and each child's heap as its
// /debug/vars reports it (children cannot be made to collect first, so
// theirs includes garbage not yet collected).
func (r *remote) heapMB() (float64, error) {
	total := liveHeapMB()
	for _, u := range r.child {
		resp, err := http.Get(u + "/debug/vars")
		if err != nil {
			return 0, err
		}
		var v struct {
			Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("child %s /debug/vars: %w", u, err)
		}
		total += float64(v.Memstats.HeapAlloc) / (1 << 20)
	}
	return total, nil
}

// observedBackend is the benchmark's wrapper around the coordinator: it
// counts what the coordinator returns and, in a traced phase, records
// the coordinator's span tree for every uncached answer.
type observedBackend struct {
	cl       *shard.Cluster
	rec      *recorder
	st       *remoteStats
	asks     atomic.Int64
	cached   atomic.Int64
	refusedN atomic.Int64 // typed not-distributable refusals
}

func (b *observedBackend) Ask(ctx context.Context, q string) (*resilient.Answer, error) {
	t0 := time.Now()
	ans, err := b.cl.Ask(ctx, q)
	t1 := time.Now()
	b.asks.Add(1)
	if errors.Is(err, shard.ErrNotDistributable) {
		b.refusedN.Add(1)
	}
	if ans != nil && ans.Cached {
		b.cached.Add(1)
	} else if b.rec != nil && ans != nil && ans.Trace != nil {
		req := b.rec.request()
		id := b.rec.span(req, 0, "coordinator ask", t0, t1)
		b.rec.importTrace(req, id, ans.Trace.Root, t0)
		b.st.coordinator(ans.Trace.Root.Export())
	}
	return ans, err
}

func (b *observedBackend) ServeBatch(ctx context.Context, qs []string) []resilient.BatchResult {
	return b.cl.ServeBatch(ctx, qs)
}

// remoteStats gathers per-layer samples from coordinator traces.
type remoteStats struct {
	mu                           sync.Mutex
	legs, legMs, wireMs, tokUs   []float64
	childInterpMs, coordInterpMs []float64
}

// coordinator reads one coordinator trace: root → interpret → shard N →
// attempt → remote → (the child's grafted gateway trace), then classify,
// scatter → shard N → …, merge.
func (st *remoteStats) coordinator(root *obs.SpanData) {
	var legs int
	var childInterp, coordInterp float64
	var walk func(d *obs.SpanData, inChild bool)
	walk = func(d *obs.SpanData, inChild bool) {
		switch {
		case inChild && d.Name == "interpret":
			childInterp += float64(d.DurNS) / 1e6
		case inChild && d.Name == "tokenize":
			st.tokUs = append(st.tokUs, float64(d.DurNS)/1e3)
		case !inChild && strings.HasPrefix(d.Name, "shard "):
			legs++
			st.legMs = append(st.legMs, float64(d.DurNS)/1e6)
		case !inChild && d.Name == "interpret":
			self := d.DurNS
			for _, c := range d.Children {
				self -= c.DurNS
			}
			coordInterp += float64(self) / 1e6
		case !inChild && d.Name == "remote":
			wire := d.DurNS
			for _, c := range d.Children {
				wire -= c.DurNS
			}
			st.wireMs = append(st.wireMs, float64(wire)/1e6)
			for _, c := range d.Children {
				walk(c, true)
			}
			return
		}
		for _, c := range d.Children {
			walk(c, inChild)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	walk(root, false)
	st.legs = append(st.legs, float64(legs))
	st.childInterpMs = append(st.childInterpMs, childInterp)
	st.coordInterpMs = append(st.coordInterpMs, coordInterp)
}

// remoteOracle holds the expected answers, computed before the timed
// region: each question's gold rows and the unsharded gateway's rows
// (nil where that gateway refused).
type remoteOracle struct {
	pool      []*question
	gold      [][][]string
	unsharded [][][]string
}

func newRemoteOracle(d *benchdata.Domain, seed int64) (*remoteOracle, error) {
	cands := distinct(fromPairs(benchdata.WikiSQLStyle(d, 5*remotePool, seed).Pairs))
	o := &remoteOracle{pool: stratify(cands, remotePool, wikiTemplate)}
	chain, err := resilient.ChainByNames(d.DB, lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		return nil, err
	}
	gw, _ := cliGateway(d.DB, chain, false, false, nil)
	for _, q := range o.pool {
		g, err := goldResult(d.DB, q.gold)
		if err != nil {
			return nil, err
		}
		o.gold = append(o.gold, rowStrings(g))
		var rows [][]string
		if ans, err := gw.Ask(context.Background(), q.text); err == nil {
			rows = rowStrings(ans.Result)
		}
		o.unsharded = append(o.unsharded, rows)
	}
	return o, nil
}

// remotePhase is one measured open-loop phase.
type remotePhase struct {
	lat, lag []time.Duration
	outcomes []outcome
	examples []string // the first few questions that did not get the expected outcome
	elapsed  time.Duration
	alloc    uint64
	gcPause  time.Duration
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: remoteSenders, MaxIdleConnsPerHost: remoteSenders},
	}
}

// post asks one question over HTTP with the workload's deadline.
func post(client *http.Client, url, question string) httpReply {
	body, _ := json.Marshal(map[string]string{"question": question}) // strings always marshal
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return httpReply{netErr: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", strconv.FormatInt(remoteDeadline.Milliseconds(), 10))
	resp, err := client.Do(req)
	if err != nil {
		return httpReply{netErr: err}
	}
	defer resp.Body.Close()
	var out struct {
		Rows  [][]string `json:"rows"`
		Error string     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return httpReply{netErr: fmt.Errorf("decoding reply (status %d): %w", resp.StatusCode, err)}
	}
	return httpReply{status: resp.StatusCode, rows: out.Rows, errMsg: out.Error}
}

// warm asks every pool question once, in order, before the timed window,
// so the fleet answer cache holds what it would hold in steady state.
// Without this, each run would start with a burst of cold misses whose
// backlog sets the tail latency differently from run to run.
func warm(r *remote, o *remoteOracle) (t tally) {
	client := newClient()
	defer client.CloseIdleConnections()
	for k, q := range o.pool {
		t[classifyHTTP(q, post(client, r.url, q.text), o.gold[k], o.unsharded[k])]++
	}
	return t
}

// drive sends the open loop against r's server and checks every reply
// as it arrives, after its latency has been taken.
func drive(r *remote, order []int, o *remoteOracle) *remotePhase {
	client := newClient()
	defer client.CloseIdleConnections()
	ph := &remotePhase{outcomes: make([]outcome, len(order))}
	var mu sync.Mutex
	seen := map[int]bool{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ph.lat, ph.lag, ph.elapsed = openLoop(remoteSenders, remoteRate, len(order), func(i int) func() {
		k := order[i]
		rep := post(client, r.url, o.pool[k].text)
		return func() {
			oc := classifyHTTP(o.pool[k], rep, o.gold[k], o.unsharded[k])
			ph.outcomes[i] = oc
			if oc == correct {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !seen[k] && len(ph.examples) < 4 {
				seen[k] = true
				ph.examples = append(ph.examples, fmt.Sprintf("%s: %q got status %d rows %v error %q; gold %v; unsharded %v",
					oc, o.pool[k].text, rep.status, clip(rep.rows), rep.errMsg, clip(o.gold[k]), clip(o.unsharded[k])))
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph
}

// judgeRemote tallies a phase's outcomes and counts the expected ones
// that arrived within the deadline.
func judgeRemote(ph *remotePhase) (t tally, okFast int64) {
	for i, oc := range ph.outcomes {
		t[oc]++
		if oc == correct && ph.lat[i] <= remoteDeadline {
			okFast++
		}
	}
	return t, okFast
}

// clip shortens a row list for a report line.
func clip(rows [][]string) [][]string {
	if len(rows) > 3 {
		return append(rows[:3:3], []string{"…"})
	}
	return rows
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// runRemote runs serve-remote: timed set-ups (see moreSetups;
// the last one is measured), the oracle, then the open loop. With traceOn a traced phase
// on a fresh deployment follows and per-layer metrics are reported.
func runRemote(c config) (*report, error) {
	rp := &report{}
	var setupS []float64
	var r *remote
	for i := 0; i == 0 || !c.trace && moreSetups(i, setupS); i++ {
		if r != nil {
			r.close()
		}
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setupRemote(c, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	heap, err := r.heapMB()
	if err != nil {
		return nil, err
	}
	o, err := newRemoteOracle(r.d, c.seed)
	if err != nil {
		return nil, fmt.Errorf("serve-remote oracle: %w", err)
	}
	order := zipfLayout(len(o.pool), int(remoteRate*c.seconds.Seconds()))
	n := len(order)
	rp.scale = dataScale(r.d.DB, invindex.Build(r.d.DB, lexicon.New()), o.pool)
	rp.scale["offered_rate"] = remoteRate

	rp.absorb(warm(r, o))
	ph := drive(r, order, o)
	asks, okFast := judgeRemote(ph)
	rp.absorb(asks)
	for _, e := range ph.examples {
		rp.note("example %s", e)
	}
	rp.outcomes = asks
	lat := sortedMs(ph.lat)
	lag := sortedMs(ph.lag)
	p50 := quantile(lat, 0.5)
	rp.e2e = map[string]float64{
		"setup_s":        median(setupS),
		"setup_heap_mb":  heap,
		"latency_p50_ms": p50,
		"latency_p90_ms": quantile(lat, 0.9),
		"latency_p99_ms": quantile(lat, 0.99),
		"throughput_qps": float64(len(lat)) / ph.elapsed.Seconds(),
		"goodput_qps":    float64(okFast) / ph.elapsed.Seconds(),
		"exec_accuracy":  ratio(asks[correct], asks.total()),
	}
	rp.tail = supportedTail(lat)
	rp.note("open loop: %d requests at %.0f/s over %.2fs; generator lag p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		n, remoteRate, ph.elapsed.Seconds(), quantile(lag, 0.5), quantile(lag, 0.99), quantile(lag, 1))
	if !c.trace {
		return rp, nil
	}

	r.close()
	r, err = setupRemote(c, true)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	st := &remoteStats{}
	r.back.rec, r.back.st = rec, st
	rp.absorb(warm(r, o)) // traced too: the legs of uncached answers happen here
	warmAsks, warmCached := r.back.asks.Load(), r.back.cached.Load()
	tph := drive(r, order, o)
	tasks, _ := judgeRemote(tph)
	rp.absorb(tasks)
	tp50 := quantile(sortedMs(tph.lat), 0.5)
	uncached := r.back.asks.Load() - r.back.cached.Load()
	var hedges, retries int64
	for s := 0; s < remoteShards; s++ {
		hedges += r.reg.Counter(shard.MetricHedges, "shard", strconv.Itoa(s)).Value()
		retries += r.reg.Counter(shard.MetricRetries, "shard", strconv.Itoa(s)).Value()
	}
	adm := r.ctrl.Stats()
	var shed int64
	for _, v := range adm.Shed {
		shed += v
	}
	wait := r.reg.Histogram(admission.MetricQueueDelay, "class", admission.Interactive.String())
	st.mu.Lock()
	sort.Float64s(st.legMs)
	rp.layers = map[string]float64{
		"failed_ratio":                   ratio(asks.failed(), asks.total()),
		"nlp.tokenize_us":                median(st.tokUs),
		"qcache.hit_ratio":               ratio(r.back.cached.Load()-warmCached, r.back.asks.Load()-warmAsks),
		"admission.queue_wait_ms_p50":    1e3 * wait.Quantile(0.5),
		"admission.queue_wait_ms_p99":    1e3 * wait.Quantile(0.99),
		"admission.shed_ratio":           ratio(shed, adm.Admitted+shed),
		"shard.legs_per_q":               mean(st.legs),
		"shard.leg_ms_p50":               quantile(st.legMs, 0.5),
		"shard.leg_ms_p99":               quantile(st.legMs, 0.99),
		"shard.hedges_per_q":             ratio(hedges, uncached),
		"shard.retries_per_q":            ratio(retries, uncached),
		"shard.refused_ratio":            ratio(r.back.refusedN.Load(), r.back.asks.Load()),
		"procnode.wire_ms_p50":           median(st.wireMs),
		"procnode.child_interpret_ms":    median(st.childInterpMs),
		"shard.coordinator_interpret_ms": median(st.coordInterpMs),
		"runtime.alloc_kb_per_q":         float64(ph.alloc) / 1024 / float64(len(lat)),
		"runtime.gc_pause_ms":            float64(ph.gcPause.Microseconds()) / 1e3,
		"trace.overhead_ms":              tp50 - p50,
	}
	st.mu.Unlock()
	rp.spans = rec
	rp.note("traced p50 %.3f ms vs untraced %.3f ms; %d uncached coordinator asks traced", tp50, p50, uncached)
	return rp, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
