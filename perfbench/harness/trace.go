package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parowl"
)

// The traced run calls each layer in-process through parowl's public API
// and times every call from outside the program: nothing inside parowl is
// instrumented. Spans are kept in memory and written out when the run ends.

// span is one timed layer call. Spans of one operation share op; parent
// is the enclosing span's id (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		t.op++ // a root span starts a new operation
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: start, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return time.Duration(end - t.spans[id].Start)
}

// record adds a finished span (plug-in calls, timed by the decorator).
func (t *tracer) record(name string, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Op: t.op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// timeCall runs f inside a span and returns its duration.
func (t *tracer) timeCall(name string, parent int32, f func()) time.Duration {
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its children's spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStat aggregates one kind of plug-in call.
type callStat struct{ calls, busyNs, trues atomic.Int64 }

func (c *callStat) ratio() float64 {
	if n := c.calls.Load(); n > 0 {
		return float64(c.trues.Load()) / float64(n)
	}
	return 0
}

func (c *callStat) busyMs() float64 { return float64(c.busyNs.Load()) / 1e6 }

// timed is a pass-through plug-in decorator that times every sat?/subs?
// call. It implements Unwrap, so capability probes reach the wrapped
// plug-in; timedFilter adds DisprovesSubs only when the wrapped plug-in
// has the model-filter capability, so a traced run does the same work as
// an untraced one.
type timed struct {
	inner  parowl.Reasoner
	tr     *tracer
	parent int32 // span of the classification the calls belong to
	spans  bool  // record a span per call (counts and busy time are always kept)
	mf     parowl.ModelFilter

	sat, subs, filter callStat
}

type timedFilter struct{ *timed }

func wrapTimed(r parowl.Reasoner, tr *tracer, spans bool) *timed {
	t := &timed{inner: r, tr: tr, spans: spans, parent: -1}
	for x := r; x != nil; {
		if mf, ok := x.(parowl.ModelFilter); ok {
			t.mf = mf
			break
		}
		w, ok := x.(interface{ Unwrap() parowl.Reasoner })
		if !ok {
			break
		}
		x = w.Unwrap()
	}
	return t
}

// reasoner returns the decorator as the plug-in to classify with.
func (t *timed) reasoner() parowl.Reasoner {
	if t.mf != nil {
		return timedFilter{t}
	}
	return t
}

func (t *timed) note(c *callStat, name string, start int64, ok bool) {
	end := t.tr.now()
	c.calls.Add(1)
	c.busyNs.Add(end - start)
	if ok {
		c.trues.Add(1)
	}
	if t.spans {
		t.tr.record(name, t.parent, start, end)
	}
}

func (t *timed) Sat(ctx context.Context, c *parowl.Concept) (bool, error) {
	start := t.tr.now()
	ok, err := t.inner.Sat(ctx, c)
	t.note(&t.sat, "plugin.sat", start, ok)
	return ok, err
}

func (t *timed) Subs(ctx context.Context, sup, sub *parowl.Concept) (bool, error) {
	start := t.tr.now()
	ok, err := t.inner.Subs(ctx, sup, sub)
	t.note(&t.subs, "plugin.subs", start, ok)
	return ok, err
}

func (t *timed) Unwrap() parowl.Reasoner { return t.inner }

func (t timedFilter) DisprovesSubs(ctx context.Context, sup, sub *parowl.Concept) bool {
	start := t.tr.now()
	ok := t.mf.DisprovesSubs(ctx, sup, sub)
	t.note(&t.filter, "plugin.filter", start, ok)
	return ok
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"}, {"parse.mb_per_s", "MB/s"},
	{"dl.fingerprint_ms", "ms"},
	{"el.saturate_ms", "ms"}, {"el.subs_calls", "count"}, {"el.subs_busy_ms", "ms"},
	{"el.prepass_ms", "ms"}, {"el.preseeded", "count"},
	{"tableau.filter_calls", "count"}, {"tableau.filter_busy_ms", "ms"}, {"tableau.filter_hit_ratio", "ratio"},
	{"tableau.subs_calls", "count"}, {"tableau.subs_busy_ms", "ms"}, {"tableau.subs_proved_ratio", "ratio"},
	{"tableau.sat_calls", "count"}, {"tableau.sat_busy_ms", "ms"},
	{"core.plugin_tests", "count"}, {"core.pruned", "count"}, {"core.prune_ratio", "ratio"},
	{"core.random_busy_ms", "ms"}, {"core.random_wait_ms", "ms"},
	{"core.group_busy_ms", "ms"}, {"core.group_wait_ms", "ms"},
	{"core.hierarchy_ms", "ms"}, {"core.cycles", "count"}, {"core.imbalance", "ratio"},
	{"core.adopt_ms", "ms"}, {"core.checkpoint_bytes", "bytes"},
	{"taxonomy.kernel_compile_ms", "ms"}, {"taxonomy.kernel_bytes", "bytes"}, {"taxonomy.dot_ms", "ms"},
	{"snapshot.subsumes_ns", "ns"}, {"snapshot.ancestors_us", "us"}, {"snapshot.descendants_us", "us"},
	{"snapshot.lca_us", "us"}, {"snapshot.batch64_us", "us"},
	{"server.subsumes_p50_us", "us"}, {"server.ancestors_p50_us", "us"}, {"server.descendants_p50_us", "us"},
	{"server.lca_p50_us", "us"}, {"server.batch64_p50_us", "us"}, {"server.http_overhead_us", "us"},
	{"server.query_p99_us", "us"}, {"server.reload_p50_ms", "ms"},
	{"server.reloads", "count"}, {"server.evictions", "count"}, {"server.coalesced", "count"},
	{"server.ingest_ms", "ms"},
	{"gc.alloc_mb_per_op", "MB"}, {"gc.cycles_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// layerRun collects a traced run's values; layers a workload does not
// reach report 0.
type layerRun struct {
	tr     *tracer
	values map[string]float64
}

func newLayerRun() *layerRun {
	l := &layerRun{tr: newTracer(), values: map[string]float64{}}
	for _, m := range perLayer {
		l.values[m.name] = 0
	}
	return l
}

func (l *layerRun) set(name string, v float64) {
	if _, ok := l.values[name]; !ok {
		panic("unknown per-layer metric " + name)
	}
	l.values[name] = v
}

// finish writes the spans, prints self times and fills res.
func (l *layerRun) finish(cfg config, res *result) error {
	path := filepath.Join(cfg.Work, "spans.jsonl")
	if err := l.tr.write(path); err != nil {
		return err
	}
	self := l.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(cfg.Log, "spans: %d written to %s\n", len(l.tr.spans), path)
	for _, n := range names {
		fmt.Fprintf(cfg.Log, "self %-22s %10.2f ms\n", n, ms(self[n]))
	}
	for _, m := range perLayer {
		v := l.values[m.name]
		fmt.Fprintf(cfg.Log, "layer %-28s %14.4f %s\n", m.name, v, m.unit)
		res.set(m.name, m.unit, v)
	}
	return nil
}

// repeat times f reps times inside spans and returns the median in ms.
func (l *layerRun) repeat(name string, parent int32, reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		xs = append(xs, ms(l.tr.timeCall(name, parent, f)))
	}
	return median(xs)
}

// classifyLayers runs the classification layers of one corpus in-process:
// parse, fingerprint, plug-in construction, traced and untraced
// classification, DOT, kernel compile, checkpoint and adoption. It returns
// the classified handle of the last untraced run.
func (l *layerRun) classifyLayers(cfg config, res *result, c corpus, src []byte, ref *dag, told [][2]string,
	spec classifySpec, reps int, callSpans bool) (*parowl.Ontology, error) {
	ctx := context.Background()
	tr := l.tr
	root := tr.begin("op.classify", -1)
	defer tr.end(root)

	var ont *parowl.Ontology
	var loadErr error
	parseMs := l.repeat("parse", root, 5, func() { ont, loadErr = load(src, c) })
	if loadErr != nil {
		return nil, loadErr
	}
	l.set("parse.ms", parseMs)
	l.set("parse.mb_per_s", float64(len(src))/1e6/(parseMs/1000))
	l.set("dl.fingerprint_ms", l.repeat("fingerprint", root, 5, func() { ont.Fingerprint() }))
	res.op("layer", false)

	tbox := ont.TBox()
	if _, err := parowl.NewELReasoner(tbox); err == nil {
		// The EL plug-in saturates lazily: time construction plus the
		// first query, which runs the saturation.
		probe := tbox.NamedConcepts()[0]
		l.set("el.saturate_ms", l.repeat("plugin.new.el", root, 3, func() {
			r, _ := parowl.NewELReasoner(tbox)
			r.Sat(ctx, probe)
		}))
	}
	isEL := spec.Plugin == "auto" && l.values["el.saturate_ms"] > 0

	check := func(what string, tax *parowl.Taxonomy) {
		if err := compareDAG(dagFromTaxonomy(tax), ref); err != nil {
			res.fail("%s: %v", what, err)
		} else if err := checkProperties(dagFromTaxonomy(tax), told); err != nil {
			res.fail("%s: %v", what, err)
		}
	}

	// Traced and untraced classifications alternate; the first traced run
	// gives the layer numbers, the medians give the tracing overhead.
	var (
		tracedMs, plainMs []float64
		first             *timed
		firstRes, plain   *parowl.Result
		allocs, gcs       []float64
		kernelMs          []float64
		counts            [2][2][]float64 // [traced, untraced][tests, pruned]
	)
	tests := func(s parowl.Stats) int64 { return s.SubsTests + s.SatTests }
	count := func(side int, s parowl.Stats) {
		counts[side][0] = append(counts[side][0], float64(tests(s)))
		counts[side][1] = append(counts[side][1], float64(s.Pruned))
	}
	for i := 0; i < reps; i++ {
		var r parowl.Reasoner
		tr.timeCall("plugin.new", root, func() { r = spec.plugin(tbox) })
		dec := wrapTimed(r, tr, callSpans && i == 0)
		opts := spec.options(dec.reasoner())
		opts.CollectTrace = true
		id := tr.begin("classify.traced", root)
		dec.parent = id
		got, err := ont.ClassifyWith(ctx, opts)
		tracedMs = append(tracedMs, ms(tr.end(id)))
		res.op("classify.traced", err != nil)
		if err != nil {
			return nil, err
		}
		check("traced classification", got.Taxonomy)
		count(0, got.Stats)
		if i == 0 {
			first, firstRes = dec, got
		}

		r = spec.plugin(tbox)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var perr error
		plainMs = append(plainMs, ms(tr.timeCall("classify", root, func() { plain, perr = ont.ClassifyWith(ctx, spec.options(r)) })))
		runtime.ReadMemStats(&m1)
		res.op("classify", perr != nil)
		if perr != nil {
			return nil, perr
		}
		check("classification", plain.Taxonomy)
		count(1, plain.Stats)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		kernelMs = append(kernelMs, ms(tr.timeCall("taxonomy.kernel", root, func() { plain.Taxonomy.CompileKernel(0) })))
	}
	l.set("gc.alloc_mb_per_op", mean(allocs))
	l.set("gc.cycles_per_op", mean(gcs))
	l.set("trace.overhead_pct", 100*(median(tracedMs)-median(plainMs))/median(plainMs))
	fmt.Fprintf(cfg.Log, "classify in-process traced_ms=%v plain_ms=%v\n", rounded(tracedMs), rounded(plainMs))

	// The traced and untraced runs must do the same work. Two workers
	// prune a little differently from run to run, so medians are compared.
	for k, what := range []string{"plug-in tests", "pruned pairs"} {
		tc, pc := median(counts[0][k]), median(counts[1][k])
		if math.Abs(tc-pc) > 0.01*math.Max(tc, pc) {
			res.fail("traced runs did different work: median %s %.0f traced, %.0f untraced", what, tc, pc)
		}
	}
	l.setPlugin(first, isEL)
	l.setCore(firstRes)

	tax := plain.Taxonomy
	l.set("taxonomy.kernel_compile_ms", median(kernelMs))
	l.set("taxonomy.kernel_bytes", float64(tax.Kernel().MemoryFootprint()))
	var dot string
	l.set("taxonomy.dot_ms", l.repeat("taxonomy.dot", root, 5, func() { dot = tax.DOT() }))
	if d, err := dagFromDOT(dot); err != nil {
		res.fail("DOT: %v", err)
	} else if err := compareDAG(d, ref); err != nil {
		res.fail("DOT: %v", err)
	}

	// Checkpoint of a completed run, then adoption into fresh handles:
	// the demand-reload path of owld.
	ck := filepath.Join(cfg.Work, c.Name+".ck")
	opts := spec.options(spec.plugin(tbox))
	opts.Checkpoint, opts.CheckpointInterval, opts.CompileKernel = ck, time.Hour, true
	if _, err := ont.ClassifyWith(ctx, opts); err != nil {
		return nil, err
	}
	st, err := os.Stat(ck)
	if err != nil {
		return nil, err
	}
	l.set("core.checkpoint_bytes", float64(st.Size()))
	var adoptMs []float64
	for i := 0; i < 5; i++ {
		fresh, err := load(src, c)
		if err != nil {
			return nil, err
		}
		var aerr error
		adoptMs = append(adoptMs, ms(tr.timeCall("core.adopt", root, func() { _, aerr = fresh.Adopt(ctx, ck) })))
		res.op("adopt", aerr != nil)
		if aerr != nil {
			return nil, aerr
		}
		if i == 0 {
			t, _ := fresh.Taxonomy()
			check("adopted checkpoint", t)
		}
	}
	l.set("core.adopt_ms", median(adoptMs))
	return ont, nil
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}

// setPlugin fills the plug-in metrics from the decorator's counters.
func (l *layerRun) setPlugin(t *timed, isEL bool) {
	if isEL {
		l.set("el.subs_calls", float64(t.subs.calls.Load()))
		l.set("el.subs_busy_ms", t.subs.busyMs())
		return
	}
	l.set("tableau.filter_calls", float64(t.filter.calls.Load()))
	l.set("tableau.filter_busy_ms", t.filter.busyMs())
	l.set("tableau.filter_hit_ratio", t.filter.ratio())
	l.set("tableau.subs_calls", float64(t.subs.calls.Load()))
	l.set("tableau.subs_busy_ms", t.subs.busyMs())
	l.set("tableau.subs_proved_ratio", t.subs.ratio())
	l.set("tableau.sat_calls", float64(t.sat.calls.Load()))
	l.set("tableau.sat_busy_ms", t.sat.busyMs())
}

// setCore fills the classifier metrics from the run's Stats and Trace.
func (l *layerRun) setCore(r *parowl.Result) {
	s := r.Stats
	tests := s.SubsTests + s.SatTests
	l.set("core.plugin_tests", float64(tests))
	l.set("core.pruned", float64(s.Pruned))
	if s.Pruned+tests > 0 {
		l.set("core.prune_ratio", float64(s.Pruned)/float64(s.Pruned+tests))
	}
	l.set("el.preseeded", float64(s.PreSeeded))
	var randBusy, randWait, groupBusy, groupWait, hier, prepass time.Duration
	cycles := 0
	for _, c := range r.Trace.Cycles {
		var wait time.Duration
		for _, w := range c.WaitNanos {
			wait += time.Duration(w)
		}
		switch c.Phase {
		case "random":
			randBusy, randWait = randBusy+c.Runtime(), randWait+wait
			cycles++
		case "group":
			groupBusy, groupWait = groupBusy+c.Runtime(), groupWait+wait
			cycles++
		case "hierarchy":
			hier += c.Runtime()
		case "prepass":
			prepass += c.Runtime()
		}
	}
	l.set("core.random_busy_ms", ms(randBusy))
	l.set("core.random_wait_ms", ms(randWait))
	l.set("core.group_busy_ms", ms(groupBusy))
	l.set("core.group_wait_ms", ms(groupWait))
	l.set("core.hierarchy_ms", ms(hier))
	l.set("el.prepass_ms", ms(prepass))
	l.set("core.cycles", float64(cycles))
	l.set("core.imbalance", r.Trace.OverallImbalance())
}

// snapshotLayers times the Snapshot query methods over a seeded query
// mix and checks their answers against the reference closure.
func (l *layerRun) snapshotLayers(res *result, ont *parowl.Ontology, cl *closure, seed int64) (map[string]float64, error) {
	snap, err := ont.Snapshot()
	if err != nil {
		return nil, err
	}
	snap.Kernel()
	root := l.tr.begin("op.snapshot", -1)
	defer l.tr.end(root)
	var names []string
	for n := range cl.d.node {
		if n != topName && n != bottomName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	pick := func() string { return names[rng.Intn(len(names))] }
	const n = 256
	type q struct{ a, b string }
	qs := make([]q, n)
	for i := range qs {
		qs[i] = q{pick(), pick()}
	}
	batch := make([][2]string, 64)
	for i := range batch {
		batch[i] = [2]string{pick(), pick()}
	}
	labels := func(nodes []*parowl.TaxonomyNode) string {
		if len(nodes) == 0 {
			return "(none)"
		}
		var out []string
		for _, nd := range nodes {
			out = append(out, nd.Label())
		}
		return normalizeAnswer("x = " + strings.Join(out, ", "))
	}
	want := func(op string, args ...string) string {
		w, _ := cl.answer(op, args)
		return w
	}
	perCall := map[string]float64{}
	timeOp := func(op string, f func(q) []*parowl.TaxonomyNode) {
		id := l.tr.begin("snapshot."+op, root)
		var xs []float64
		for _, x := range qs {
			t0 := time.Now()
			nodes := f(x)
			xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
			got := labels(nodes)
			res.op("snapshot", false)
			var args []string
			switch op {
			case "ancestors", "descendants":
				args = []string{x.a}
			default:
				args = []string{x.a, x.b}
			}
			if op != "batch64" && got != want(op, args...) {
				res.fail("snapshot %s%v: got %.200q, want %.200q", op, args, got, want(op, args...))
			}
		}
		l.tr.end(id)
		perCall[op] = median(xs)
	}
	timeOp("ancestors", func(x q) []*parowl.TaxonomyNode { a, _ := snap.Ancestors(x.a); return a })
	timeOp("descendants", func(x q) []*parowl.TaxonomyNode { d, _ := snap.Descendants(x.a); return d })
	timeOp("lca", func(x q) []*parowl.TaxonomyNode { d, _ := snap.LCA(x.a, x.b); return d })
	// Subsumes is a bit test: time the whole pass and divide.
	id := l.tr.begin("snapshot.subsumes", root)
	const passes = 200
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, x := range qs {
			ok, _ := snap.Subsumes(x.a, x.b)
			if p == 0 && fmt.Sprint(ok) != want("subsumes", x.a, x.b) {
				res.fail("snapshot subsumes(%s, %s) = %v", x.a, x.b, ok)
			}
		}
	}
	perCall["subsumes"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(passes*n)
	l.tr.end(id)
	res.op("snapshot", false)
	var bxs []float64
	id = l.tr.begin("snapshot.batch64", root)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, err := snap.SubsumesBatch(batch)
		bxs = append(bxs, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			for j, ok := range got {
				if fmt.Sprint(ok) != want("subsumes", batch[j][0], batch[j][1]) {
					res.fail("snapshot batch pair %v = %v", batch[j], ok)
				}
			}
		}
	}
	l.tr.end(id)
	res.op("snapshot", false)
	perCall["batch64"] = median(bxs)
	l.set("snapshot.subsumes_ns", perCall["subsumes"]*1000)
	l.set("snapshot.ancestors_us", perCall["ancestors"])
	l.set("snapshot.descendants_us", perCall["descendants"])
	l.set("snapshot.lca_us", perCall["lca"])
	l.set("snapshot.batch64_us", perCall["batch64"])
	return perCall, nil
}

// classifyTrace is the traced run of a classify workload.
func classifyTrace(s classifySpec) func(cfg config) (*result, error) {
	return func(cfg config) (*result, error) {
		p, err := s.prepare(cfg)
		if err != nil {
			return nil, err
		}
		res := newResult()
		l := newLayerRun()
		ont, err := l.classifyLayers(cfg, res, p.corpus, p.src, p.ref, p.told, s, 3, true)
		if err != nil {
			return nil, err
		}
		if _, err := l.snapshotLayers(res, ont, newClosure(p.ref), cfg.Seed); err != nil {
			return nil, err
		}
		return res, l.finish(cfg, res)
	}
}

// serveTrace is the traced run of the serve workload: the hot ontology's
// layers in-process, then the daemon session with per-operation timings.
func serveTrace(cfg config) (*result, error) {
	res := newResult()
	l := newLayerRun()
	s, err := runSession(cfg, res)
	if err != nil {
		return nil, err
	}
	hot := s.hotServed
	spec := classifySpec{Plugin: "auto"}
	ont, err := l.classifyLayers(cfg, res, hot.corpus, hot.src, hot.cl.d, toldSubsumptions(hot.src, hot.corpus.Format), spec, 1, false)
	if err != nil {
		return nil, err
	}
	snapUs, err := l.snapshotLayers(res, ont, hot.cl, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Here an operation is one hot query, answered in-process.
	snap, err := ont.Snapshot()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, r := range s.pool {
		if r.op == "batch64" {
			var body struct{ Pairs [][2]string }
			json.Unmarshal(r.body, &body)
			_, err = snap.SubsumesBatch(body.Pairs)
		} else {
			q, _ := url.ParseQuery(r.path[strings.IndexByte(r.path, '?')+1:])
			_, err = snap.EvalSpec(context.Background(), q.Get("q"))
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	l.set("gc.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(s.pool)))
	l.set("gc.cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(len(s.pool)))
	hotSamples, _ := s.quietSamples()
	var overhead []float64
	for _, op := range hotOps {
		p50 := median(latencies(hotSamples, op))
		l.set("server."+op+"_p50_us", p50)
		overhead = append(overhead, p50-snapUs[op])
	}
	l.set("server.http_overhead_us", mean(overhead))
	l.set("server.query_p99_us", quantile(latencies(hotSamples, ""), 0.99))
	var cold []float64
	for _, c := range s.cold {
		cold = append(cold, ms(c))
	}
	l.set("server.reload_p50_ms", median(cold))
	l.set("server.reloads", float64(s.after.Reloads-s.before.Reloads))
	l.set("server.evictions", float64(s.after.Evictions-s.before.Evictions))
	l.set("server.coalesced", float64(s.after.Coalesced-s.before.Coalesced))
	l.set("server.ingest_ms", ms(s.ingest))
	return res, l.finish(cfg, res)
}
