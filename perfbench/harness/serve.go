package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parowl"
)

// The serve workload drives owld over loopback: a hot EL ontology queried
// by a closed loop of workers() connections, and two small cold
// ontologies of which the memory budget keeps only one resident. Every
// cold request goes to the evicted one, so each pays a demand reload
// (re-parse, re-fingerprint, checkpoint re-adoption) and evicts the other.
// Alternating two cold ontologies keeps the hot one resident: the LRU
// victim is always the cold ontology queried longest ago.
type serveSpec struct {
	Hot, Cold1, Cold2 corpus
	Rounds            int // distinct hot rounds in the query pool
	// ColdEvery is the number of hot rounds, counted over all
	// connections, per cold request. A fixed ratio, rather than a fixed
	// count, keeps the reload work per hot query the same whatever the
	// host's speed. It is set so that reloads take about half of owld's
	// CPU in the loop (derivation in perfbench/README.md), so a slowdown
	// of either path moves cpu_ms_per_op by half its size.
	ColdEvery int
	// Calibrate is the number of cold requests sent alone after the
	// loop to measure owld's CPU per reload.
	Calibrate int
}

var (
	serveFull = serveSpec{
		Hot:       corpus{Name: "hot", Profile: "lanogaster.obo", Scale: 4, GenSeed: 1, Format: parowl.FormatOBO},
		Cold1:     corpus{Name: "cold1", Profile: "EHDAA2", Scale: 4, GenSeed: 1, Format: parowl.FormatOBO},
		Cold2:     corpus{Name: "cold2", Profile: "EHDAA2", Scale: 4, GenSeed: 2, Format: parowl.FormatOBO},
		Rounds:    512,
		ColdEvery: 64,
		Calibrate: 8,
	}
	serveSmoke = serveSpec{
		Hot:       corpus{Name: "hot", Profile: "lanogaster.obo", Scale: 32, GenSeed: 1, Format: parowl.FormatOBO},
		Cold1:     corpus{Name: "cold1", Profile: "EHDAA2", Scale: 24, GenSeed: 1, Format: parowl.FormatOBO},
		Cold2:     corpus{Name: "cold2", Profile: "EHDAA2", Scale: 24, GenSeed: 2, Format: parowl.FormatOBO},
		Rounds:    32,
		ColdEvery: 16,
		Calibrate: 2,
	}
)

// hotOps is one round of the hot mix, in order.
var hotOps = []string{"subsumes", "ancestors", "descendants", "lca", "batch64"}

// request is one HTTP operation with its expected answer.
type request struct {
	op     string
	method string
	path   string // includes the query string
	body   []byte
	want   string // normalized expected answer
}

// served is one ontology as the harness knows it: corpus bytes,
// reference DAG and its closure.
type served struct {
	corpus corpus
	src    []byte
	tax    *parowl.Taxonomy
	cl     *closure
	names  []string // named concepts, sorted
}

func prepareServed(cfg config, c corpus) (*served, float64, error) {
	src, setupS, err := c.timedGenerate(cfg.Seed, 9)
	if err != nil {
		return nil, 0, err
	}
	tax, d, err := reference(c, src, "el", 0, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	if err := checkProperties(d, toldSubsumptions(src, c.Format)); err != nil {
		return nil, 0, fmt.Errorf("reference %s: %w", c.Name, err)
	}
	s := &served{corpus: c, src: src, tax: tax, cl: newClosure(d)}
	for name := range d.node {
		if name != topName && name != bottomName {
			s.names = append(s.names, name)
		}
	}
	sort.Strings(s.names)
	fmt.Fprintf(cfg.Log, "corpus %s: %d bytes, %d classes\n", c, len(src), len(d.label))
	return s, setupS, nil
}

// footprint is what owld charges a classified ontology against its
// budget: the taxonomy plus its compiled kernel.
func (s *served) footprint() int64 {
	return int64(s.tax.MemoryFootprint() + s.tax.CompileKernel(0).MemoryFootprint())
}

// pair draws (sup, sub), half the time with sup a strict ancestor of sub.
func (s *served) pair(rng *rand.Rand) (string, string) {
	sub := s.names[rng.Intn(len(s.names))]
	sup := s.names[rng.Intn(len(s.names))]
	if rng.Intn(2) == 0 {
		v := s.cl.d.node[sub]
		var ancs []string
		for a := range s.cl.d.label {
			if bitTest(s.cl.anc[v], a) && s.cl.d.label[a] != topName {
				ancs = append(ancs, firstName(s.cl.d.label[a]))
			}
		}
		if len(ancs) > 0 {
			sup = ancs[rng.Intn(len(ancs))]
		}
	}
	return sup, sub
}

func (s *served) query(id, op string, args ...string) (request, error) {
	want, err := s.cl.answer(op, args)
	if err != nil {
		return request{}, err
	}
	q := url.Values{"q": {op + ":" + strings.Join(args, ",")}}
	return request{op: op, method: http.MethodGet, path: "/ontologies/" + id + "/query?" + q.Encode(), want: want}, nil
}

// hotPool builds the seeded rounds of the hot mix with their answers.
func (s *served) hotPool(rounds int, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []request
	for i := 0; i < rounds; i++ {
		for _, op := range hotOps {
			var (
				r   request
				err error
			)
			switch op {
			case "subsumes":
				sup, sub := s.pair(rng)
				r, err = s.query("hot", op, sup, sub)
			case "ancestors", "descendants":
				r, err = s.query("hot", op, s.names[rng.Intn(len(s.names))])
			case "lca":
				r, err = s.query("hot", op, s.names[rng.Intn(len(s.names))], s.names[rng.Intn(len(s.names))])
			case "batch64":
				pairs := make([][2]string, 64)
				want := make([]string, 64)
				for j := range pairs {
					sup, sub := s.pair(rng)
					pairs[j] = [2]string{sup, sub}
					want[j], _ = s.cl.answer("subsumes", []string{sup, sub})
				}
				body, _ := json.Marshal(map[string]any{"pairs": pairs})
				r = request{op: op, method: http.MethodPost, path: "/ontologies/hot/subsumes", body: body, want: strings.Join(want, ",")}
			}
			if err != nil {
				return nil, err
			}
			pool = append(pool, r)
		}
	}
	return pool, nil
}

// normalizeResponse reduces a response body to the form of request.want.
func normalizeResponse(op string, body []byte) string {
	if op == "batch64" {
		var resp struct {
			Results []bool `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return "unparsable: " + string(body)
		}
		parts := make([]string, len(resp.Results))
		for i, v := range resp.Results {
			parts[i] = strconv.FormatBool(v)
		}
		return strings.Join(parts, ",")
	}
	return normalizeAnswer(strings.TrimRight(string(body), "\n"))
}

// daemon is a running owld.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	hc      *http.Client
	once    sync.Once
	stopErr error
}

func startDaemon(cfg config, budget int64) (*daemon, error) {
	ready := filepath.Join(cfg.Work, "owld.addr")
	logf, err := os.Create(filepath.Join(cfg.Work, "owld.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(cfg.Bin, "owld"),
		"-addr", "127.0.0.1:0", "-ready-file", ready,
		"-workers", strconv.Itoa(workers()), "-jobs", "1",
		"-checkpoint-dir", filepath.Join(cfg.Work, "ck"),
		"-max-resident-bytes", strconv.FormatInt(budget, 10))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers(), DisableCompression: true,
	}}}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if b, err := os.ReadFile(ready); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = strings.TrimSpace(string(b))
			return d, nil
		}
	}
	d.stop()
	return nil, fmt.Errorf("owld did not become ready")
}

// stop drains owld with SIGTERM and waits for it to exit; later calls
// return the first call's outcome.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- d.cmd.Wait() }()
		select {
		case d.stopErr = <-done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-done
			d.stopErr = fmt.Errorf("owld did not exit on SIGTERM")
		}
	})
	return d.stopErr
}

// do sends one request and returns its status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) getJSON(path string, v any) error {
	code, b, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

type health struct {
	ResidentBytes    int64 `json:"resident_bytes"`
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	Evictions        int64 `json:"evictions"`
	Reloads          int64 `json:"reloads"`
	Coalesced        int64 `json:"coalesced_queries"`
}

type entryStatus struct {
	Status   string `json:"status"`
	Error    string `json:"error"`
	Resident bool   `json:"resident"`
}

// submit posts an ontology for classification.
func (d *daemon) submit(s *served) error {
	code, b, err := d.do(http.MethodPost, "/ontologies?id="+s.corpus.Name+"&format="+s.corpus.Format.String(), s.src)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return fmt.Errorf("submit %s: status %d: %s", s.corpus.Name, code, b)
	}
	return nil
}

// awaitClassified polls the entry until it is classified.
func (d *daemon) awaitClassified(id string, limit time.Duration) error {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var st entryStatus
		if err := d.getJSON("/ontologies/"+id, &st); err != nil {
			return err
		}
		switch st.Status {
		case "classified":
			return nil
		case "failed", "interrupted":
			return fmt.Errorf("classify %s: %s: %s", id, st.Status, st.Error)
		}
	}
	return fmt.Errorf("classify %s: not classified within %v", id, limit)
}

// procCPU reads a process's user plus system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond, nil // USER_HZ = 100
}

// procStatusKB reads one kB-valued field (VmHWM:, VmRSS:) of a
// process's /proc status.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sample is one timed hot request.
type sample struct {
	op  string
	at  time.Duration // start, from the start of the loop
	dur time.Duration
}

// slice is about 100 ms of the timed loop, as the host and owld saw it.
type slice struct {
	from, to     time.Duration // from the start of the loop
	total, steal int64         // host CPU ticks, and those of them stolen
	cpu          time.Duration // owld's CPU time
}

// session is one serve run's measurements.
type session struct {
	setupS    float64
	ingest    time.Duration // hot ontology: submit until classified
	hot       []sample
	loopWall  time.Duration
	cold      []time.Duration
	cpu       time.Duration // owld CPU over the timed loop
	hwm       int64
	reloadCPU time.Duration // owld CPU per reload, sent alone after the loop
	rss       []int64       // VmRSS samples through the loop
	slices    []slice
	before    health
	after     health
	budget    int64
	hotServed *served
	pool      []request
}

// runSession sets owld up, runs the timed closed loop and the checks.
func runSession(cfg config, res *result) (*session, error) {
	spec := serveFull
	if cfg.Smoke {
		spec = serveSmoke
	}
	s := &session{}
	var gen float64
	var onts [3]*served
	for i, c := range []corpus{spec.Cold1, spec.Cold2, spec.Hot} {
		o, g, err := prepareServed(cfg, c)
		if err != nil {
			return nil, err
		}
		onts[i], gen = o, gen+g
	}
	cold1, cold2, hot := onts[0], onts[1], onts[2]
	s.hotServed = hot
	// The budget holds the hot ontology plus one cold one, never both.
	f1, f2 := cold1.footprint(), cold2.footprint()
	s.budget = hot.footprint() + max(f1, f2) + min(f1, f2)/2
	pool, err := hot.hotPool(spec.Rounds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	// Cold requests alternate between the two cold ontologies, starting
	// with the one evicted at set-up; each pair of them is drawn from a
	// seeded pool.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var coldPool [2][]request
	for i, c := range []*served{cold1, cold2} {
		for j := 0; j < 64; j++ {
			sup, sub := c.pair(rng)
			r, err := c.query(c.corpus.Name, "subsumes", sup, sub)
			if err != nil {
				return nil, err
			}
			coldPool[i] = append(coldPool[i], r)
		}
	}

	// Set-up: daemon start until every ontology is classified, the
	// over-budget one is evicted and the first hot query is answered.
	start := time.Now()
	d, err := startDaemon(cfg, s.budget)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var hotSubmit time.Time
	for _, o := range onts {
		if o == hot {
			hotSubmit = time.Now()
		}
		if err := d.submit(o); err != nil {
			return nil, err
		}
	}
	for _, o := range onts {
		if err := d.awaitClassified(o.corpus.Name, 120*time.Second); err != nil {
			return nil, err
		}
		if o == hot {
			s.ingest = time.Since(hotSubmit)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if err := d.getJSON("/healthz", &s.before); err != nil {
			return nil, err
		}
		if s.before.Evictions > 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("setup: no cold ontology was evicted (budget %d)", s.budget)
		}
	}
	if code, body, err := d.do(pool[0].method, pool[0].path, pool[0].body); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("setup: first query: status %d: %v %s", code, err, body)
	}
	s.setupS = gen + time.Since(start).Seconds()

	var st1 entryStatus
	if err := d.getJSON("/ontologies/"+cold1.corpus.Name, &st1); err != nil {
		return nil, err
	}
	if st1.Resident {
		coldPool[0], coldPool[1] = coldPool[1], coldPool[0]
	}
	coldReq := func(i int) request { return coldPool[i%2][(i/2)%len(coldPool[0])] }
	if err := d.getJSON("/healthz", &s.before); err != nil {
		return nil, err
	}

	// The timed closed loop: each connection sends whole rounds of the
	// hot mix back to back until the window ends; connection 0 also sends
	// one cold request per ColdEvery rounds completed by all connections.
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		accepted = make([][]byte, len(pool)) // raw bodies already checked, by pool index
		wg       sync.WaitGroup
		samples  = make([][]sample, workers())
		done     atomic.Int64 // hot rounds completed by all connections
	)
	check := func(r request, idx int, code int, body []byte) {
		failed := code != http.StatusOK
		mu.Lock()
		defer mu.Unlock()
		res.op(r.op, failed)
		if failed {
			res.fail("%s %s: status %d: %s", r.method, r.path, code, bytes.TrimSpace(body))
			return
		}
		if idx >= 0 && accepted[idx] != nil && bytes.Equal(accepted[idx], body) {
			return
		}
		if got := normalizeResponse(r.op, body); got != r.want {
			res.fail("%s %s: got %.200q, want %.200q", r.method, r.path, got, r.want)
			return
		}
		if idx >= 0 {
			accepted[idx] = bytes.Clone(body)
		}
	}
	loopStart := time.Now()
	deadline := loopStart.Add(cfg.Seconds)
	// Every 100 ms, sample owld's resident set and close a slice: host
	// steal, owld CPU.
	type sampled struct {
		rss    []int64
		slices []slice
	}
	stop, sampDone := make(chan struct{}), make(chan sampled)
	go func() {
		var out sampled
		tot0, st0 := cpuTicks()
		c0, _ := procCPU(pid)
		var from time.Duration
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			stopped := false
			select {
			case <-stop:
				stopped = true
			case <-tick.C:
				if v, err := procStatusKB(pid, "VmRSS:"); err == nil {
					out.rss = append(out.rss, v*1024)
				}
			}
			now := time.Since(loopStart)
			tot1, st1 := cpuTicks()
			c1, _ := procCPU(pid)
			out.slices = append(out.slices, slice{from: from, to: now, total: tot1 - tot0, steal: st1 - st0, cpu: c1 - c0})
			tot0, st0, c0, from = tot1, st1, c1, now
			if stopped {
				sampDone <- out
				return
			}
		}
	}()
	rounds := len(pool) / len(hotOps)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := w; round == w || time.Now().Before(deadline); round += workers() {
				base := (round % rounds) * len(hotOps)
				for k := 0; k < len(hotOps); k++ {
					r := pool[base+k]
					t0 := time.Now()
					code, body, err := d.do(r.method, r.path, r.body)
					dur := time.Since(t0)
					if err != nil {
						code, body = 0, []byte(err.Error())
					}
					samples[w] = append(samples[w], sample{op: r.op, at: t0.Sub(loopStart), dur: dur})
					check(r, base+k, code, body)
				}
				done.Add(1)
				for w == 0 && done.Load() >= int64(len(s.cold)+1)*int64(spec.ColdEvery) && time.Now().Before(deadline) {
					s.sendCold(d, coldReq(len(s.cold)), check)
				}
			}
		}(w)
	}
	wg.Wait()
	s.loopWall = time.Since(loopStart)
	close(stop)
	got := <-sampDone
	s.rss, s.slices = got.rss, got.slices
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	s.cpu = cpu1 - cpu0
	for _, ss := range samples {
		s.hot = append(s.hot, ss...)
	}

	// Health checks, after the timed loop.
	if err := d.getJSON("/healthz", &s.after); err != nil {
		return nil, err
	}
	if got := s.after.Reloads - s.before.Reloads; got != int64(len(s.cold)) {
		res.fail("healthz: %d reloads for %d cold requests", got, len(s.cold))
	}
	if s.after.Evictions <= 0 {
		res.fail("healthz: no evictions")
	}
	if s.after.ResidentBytes > s.budget {
		res.fail("healthz: resident_bytes %d over the budget %d", s.after.ResidentBytes, s.budget)
	}
	var hst entryStatus
	if err := d.getJSON("/ontologies/hot", &hst); err != nil {
		return nil, err
	}
	if !hst.Resident {
		res.fail("the hot ontology was evicted")
	}
	hwmKB, err := procStatusKB(pid, "VmHWM:")
	if err != nil {
		return nil, err
	}
	s.hwm = hwmKB * 1024

	// Reload cost alone: cold requests with nothing else running, each
	// after one hot query so the hot ontology stays the most recently used
	// and the other cold one is the LRU victim.
	c0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Calibrate; i++ {
		code, body, err := d.do(pool[0].method, pool[0].path, pool[0].body)
		if err != nil {
			code, body = 0, []byte(err.Error())
		}
		check(pool[0], 0, code, body)
		r := coldReq(len(s.cold) + i)
		if code, body, err = d.do(r.method, r.path, r.body); err != nil {
			code, body = 0, []byte(err.Error())
		}
		check(request{op: "cold", method: r.method, path: r.path, want: r.want}, -1, code, body)
	}
	c1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var h health
	if err := d.getJSON("/healthz", &h); err != nil {
		return nil, err
	}
	if got := h.Reloads - s.after.Reloads; got != int64(spec.Calibrate) {
		res.fail("healthz: %d reloads for %d calibration cold requests", got, spec.Calibrate)
	}
	s.reloadCPU = (c1 - c0) / time.Duration(spec.Calibrate)
	if err := d.stop(); err != nil {
		res.fail("owld shutdown: %v", err)
	}
	return s, nil
}

// sendCold sends one request to an evicted ontology and records its latency.
func (s *session) sendCold(d *daemon, r request, check func(request, int, int, []byte)) {
	t0 := time.Now()
	code, body, err := d.do(r.method, r.path, r.body)
	dur := time.Since(t0)
	if err != nil {
		code, body = 0, []byte(err.Error())
	}
	s.cold = append(s.cold, dur)
	check(request{op: "cold", method: r.method, path: r.path, want: r.want}, -1, code, body)
}

// quietSamples returns the hot samples that started in quiet slices and
// owld's CPU time over those slices. Quiet slices are those in which the
// host stole no CPU time at all; when they hold fewer than half of the hot
// samples, the slices with the least steal are taken until they hold half.
// Steal comes in bursts shorter than a second, so 100 ms slices keep most
// of a run even when the host is busy. Half, not less, because a reload's
// CPU (about 80 ms) lands in one or two slices: the share of reload CPU in
// a small selection of slices moves with which slices it happens to hold.
func (s *session) quietSamples() ([]sample, time.Duration) {
	type counted struct {
		slice
		hot []sample
	}
	cs := make([]counted, len(s.slices))
	for i, sl := range s.slices {
		cs[i].slice = sl
	}
	for _, x := range s.hot {
		i := sort.Search(len(cs), func(i int) bool { return cs[i].to > x.at })
		if i < len(cs) && x.at >= cs[i].from {
			cs[i].hot = append(cs[i].hot, x)
		}
	}
	share := func(c counted) float64 {
		if c.total == 0 {
			return 1
		}
		return float64(c.steal) / float64(c.total)
	}
	sort.SliceStable(cs, func(i, j int) bool { return share(cs[i]) < share(cs[j]) })
	var out []sample
	var cpu time.Duration
	for _, c := range cs {
		if c.steal > 0 && 2*len(out) >= len(s.hot) {
			break
		}
		out = append(out, c.hot...)
		cpu += c.cpu
	}
	return out, cpu
}

// hotLatencyUs is the hot mix's typical latency: the mean over the five
// query kinds of each kind's median, in microseconds. The median of all
// samples together falls between the kinds' latency modes, where few
// samples lie, so it jumps with small changes in their shapes.
func hotLatencyUs(xs []sample) float64 {
	var p50 []float64
	for _, op := range hotOps {
		p50 = append(p50, median(latencies(xs, op)))
	}
	return mean(p50)
}

// latencies returns the samples of one op ("" = all) in microseconds.
func latencies(xs []sample, op string) []float64 {
	var out []float64
	for _, x := range xs {
		if op == "" || x.op == op {
			out = append(out, float64(x.dur)/float64(time.Microsecond))
		}
	}
	return out
}

func serveRun(cfg config) (*result, error) {
	res := newResult()
	s, err := runSession(cfg, res)
	if err != nil {
		return nil, err
	}
	hot, cpu := s.quietSamples()
	all, used := latencies(s.hot, ""), latencies(hot, "")
	var cold []float64
	for _, c := range s.cold {
		cold = append(cold, ms(c))
	}
	var rss []float64
	for _, v := range s.rss {
		rss = append(rss, float64(v)/(1<<20))
	}
	quiet := 0
	for _, sl := range s.slices {
		if sl.steal == 0 {
			quiet++
		}
	}
	fmt.Fprintf(cfg.Log, "serve slices without host steal %d of %d; metrics from %d of %d hot queries\n", quiet, len(s.slices), len(used), len(all))
	fmt.Fprintf(cfg.Log, "serve rss_mb hwm=%.1f loop_p50=%.1f loop_max=%.1f\n", float64(s.hwm)/(1<<20), median(rss), quantile(rss, 1))
	fmt.Fprintf(cfg.Log, "serve hot n=%d p50_us=%.1f p99_us=%.1f per_s=%.1f cold n=%d reload_p50_ms=%.2f budget=%d resident=%d cpu_ms=%.0f\n",
		len(all), median(all), quantile(all, .99), float64(len(all))/s.loopWall.Seconds(),
		len(cold), median(cold), s.budget, s.after.ResidentBytes, ms(s.cpu))
	// What the reloads weigh in cpu_ms_per_op: owld CPU per reload,
	// measured alone after the loop, times the loop's cold requests, over
	// owld's CPU in the loop.
	fmt.Fprintf(cfg.Log, "serve reload cpu_ms=%.1f each; %d reloads take %.0f%% of owld's CPU in the loop\n",
		ms(s.reloadCPU), len(s.cold), 100*float64(s.reloadCPU)*float64(len(s.cold))/float64(s.cpu))
	var clientTime float64
	for _, x := range all {
		clientTime += x
	}
	for _, op := range hotOps {
		l := latencies(hot, op)
		var sum float64
		for _, x := range latencies(s.hot, op) {
			sum += x
		}
		fmt.Fprintf(cfg.Log, "serve op %-11s n=%d p50_us=%.1f p99_us=%.1f share_of_hot_time=%.0f%%\n",
			op, len(l), median(l), quantile(l, .99), 100*sum/clientTime)
	}
	res.set("setup_s", "s", s.setupS)
	fmt.Fprintf(cfg.Log, "serve latency_us mean_of_op_p50=%.1f p50_of_all=%.1f\n", hotLatencyUs(hot), median(used))
	res.set("latency_p50_ms", "ms", hotLatencyUs(hot)/1000)
	res.set("cpu_ms_per_op", "ms", ms(cpu)/float64(len(used)))
	res.set("rss_mb", "MB", median(rss))
	return res, nil
}
