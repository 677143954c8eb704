package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"parowl"
)

// classifySpec is one owlclass workload: the corpus, the plug-in and
// pipeline flags, and how its reference taxonomy is computed.
type classifySpec struct {
	Corpus corpus
	Smoke  corpus // small corpus for the harness's own tests
	// Plugin is "auto" (the EL reasoner on these corpora) or "tableau".
	Plugin   string
	Pipeline bool // -prepass -modelfilter
	// RefPlugin is the plug-in of the brute-force reference.
	RefPlugin string
	// SpotCheck, when set, re-tests every reference edge and a seeded
	// sample of non-edges with the tableau plug-in, so the EL reference
	// is confirmed by a second reasoner.
	SpotCheck int
}

var (
	classifyEL = classifySpec{
		Corpus:    corpus{Name: "ehdaa2", Profile: "EHDAA2", Scale: 4, GenSeed: 1, Format: parowl.FormatOBO},
		Smoke:     corpus{Name: "ehdaa2", Profile: "EHDAA2", Scale: 24, GenSeed: 1, Format: parowl.FormatOBO},
		Plugin:    "auto",
		RefPlugin: "el",
		SpotCheck: 1000,
	}
	classifyDLFilter = classifySpec{
		Corpus:    corpus{Name: "actpathway", Profile: "actpathway.obo", Scale: 16, GenSeed: 1, Format: parowl.FormatOBO},
		Smoke:     corpus{Name: "actpathway", Profile: "actpathway.obo", Scale: 64, GenSeed: 1, Format: parowl.FormatOBO},
		Plugin:    "tableau",
		Pipeline:  true,
		RefPlugin: "el",
	}
	classifyDLTableau = classifySpec{
		Corpus:    corpus{Name: "ncitations", Profile: "ncitations_functional", Scale: 6, GenSeed: 1, Format: parowl.FormatFunctional},
		Smoke:     corpus{Name: "ncitations", Profile: "ncitations_functional", Scale: 24, GenSeed: 1, Format: parowl.FormatFunctional},
		Plugin:    "tableau",
		RefPlugin: "tableau",
	}
)

func (s classifySpec) corpus(cfg config) corpus {
	if cfg.Smoke {
		return s.Smoke
	}
	return s.Corpus
}

// flags are the owlclass arguments of one operation.
func (s classifySpec) flags() []string {
	f := []string{"-workers", strconv.Itoa(workers()), "-sched", "roundrobin", "-reasoner", s.Plugin}
	if s.Pipeline {
		f = append(f, "-prepass", "-modelfilter")
	}
	return append(f, "-dot")
}

// options mirrors flags for in-process classification.
func (s classifySpec) options(r parowl.Reasoner) parowl.Options {
	return parowl.Options{
		Reasoner:     r,
		Workers:      workers(),
		RandomCycles: 2,
		Seed:         1,
		Mode:         parowl.ModeOptimized,
		Scheduling:   parowl.RoundRobin,
		ELPrepass:    s.Pipeline,
		ModelFilter:  s.Pipeline,
	}
}

// plugin builds the operation's plug-in the way owlclass does.
func (s classifySpec) plugin(t *parowl.TBox) parowl.Reasoner {
	if s.Plugin == "tableau" {
		return parowl.NewTableauReasoner(t)
	}
	return parowl.NewAutoReasoner(t)
}

// prepared is a workload's generated corpus with its reference.
type prepared struct {
	corpus corpus
	src    []byte
	path   string
	setupS float64
	ref    *dag
	told   [][2]string
}

// prepare generates the corpus (timed: the run's set-up) and computes the
// reference taxonomy (not timed).
func (s classifySpec) prepare(cfg config) (*prepared, error) {
	c := s.corpus(cfg)
	src, setupS, err := c.timedGenerate(cfg.Seed, 101)
	if err != nil {
		return nil, err
	}
	p := &prepared{corpus: c, src: src, setupS: setupS, path: filepath.Join(cfg.Work, c.Name+c.ext())}
	if err := os.WriteFile(p.path, src, 0o644); err != nil {
		return nil, err
	}
	start := time.Now()
	_, p.ref, err = reference(c, src, s.RefPlugin, s.SpotCheck, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.told = toldSubsumptions(src, c.Format)
	if err := checkProperties(p.ref, p.told); err != nil {
		return nil, fmt.Errorf("reference taxonomy: %w", err)
	}
	fmt.Fprintf(cfg.Log, "corpus %s: %d bytes, %d classes, %d told SubClassOf; reference (%s brute force) in %.1fs\n",
		c, len(src), len(p.ref.label), len(p.told), s.RefPlugin, time.Since(start).Seconds())
	return p, nil
}

// reference classifies the corpus with the sequential brute-force
// baseline, which tests every ordered pair and uses neither pruning nor
// the pipeline. With spot > 0 the tableau plug-in re-tests every direct
// edge and spot seeded non-subsumptions of the result.
func reference(c corpus, src []byte, plugin string, spot int, seed int64) (*parowl.Taxonomy, *dag, error) {
	ont, err := load(src, c)
	if err != nil {
		return nil, nil, err
	}
	var r parowl.Reasoner
	switch plugin {
	case "el":
		if r, err = parowl.NewELReasoner(ont.TBox()); err != nil {
			return nil, nil, err
		}
	default:
		r = parowl.NewTableauReasoner(ont.TBox())
	}
	tax, err := ont.ClassifySequential(context.Background(), r)
	if err != nil {
		return nil, nil, err
	}
	d := dagFromTaxonomy(tax)
	if spot > 0 {
		if err := spotCheck(ont, d, spot, seed); err != nil {
			return nil, nil, err
		}
	}
	return tax, d, nil
}

// spotCheck asks the tableau plug-in about every direct edge of d (each
// must hold) and about n seeded pairs that d says are not subsumed (none
// may hold).
func spotCheck(ont *parowl.Ontology, d *dag, n int, seed int64) error {
	ctx := context.Background()
	tab := parowl.NewTableauReasoner(ont.TBox())
	concept := func(v int) *parowl.Concept {
		c, _ := ont.Concept(firstName(d.label[v]))
		return c
	}
	named := func(v int) bool { return d.label[v] != topName && d.label[v] != bottomName && concept(v) != nil }
	for v, ps := range d.parents {
		for _, p := range ps {
			if !named(v) || !named(p) {
				continue
			}
			ok, err := tab.Subs(ctx, concept(p), concept(v))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("spot check: tableau refutes reference edge %s -> %s", d.label[v], d.label[p])
			}
		}
	}
	cl := newClosure(d)
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; n > 0 && tries < 100*n; tries++ {
		sub, sup := rng.Intn(len(d.label)), rng.Intn(len(d.label))
		if sub == sup || !named(sub) || !named(sup) || bitTest(cl.anc[sub], sup) {
			continue
		}
		n--
		ok, err := tab.Subs(ctx, concept(sup), concept(sub))
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("spot check: tableau proves %s ⊑ %s, absent from the reference", d.label[sub], d.label[sup])
		}
	}
	return nil
}

// firstName returns the first member of a class label.
func firstName(label string) string {
	name, _, _ := strings.Cut(label, " ")
	return name
}

// checker verifies operation outputs, once per distinct output.
type checker struct {
	p       *prepared
	verdict map[[32]byte]error
}

func (c *checker) check(out []byte) error {
	h := sha256.Sum256(out)
	if err, ok := c.verdict[h]; ok {
		return err
	}
	d, err := dagFromDOT(string(out))
	if err == nil {
		err = compareDAG(d, c.p.ref)
	}
	if err == nil {
		err = checkProperties(d, c.p.told)
	}
	c.verdict[h] = err
	return err
}

// classifyRun is the end-to-end run: owlclass processes back to back for
// the measured window, each from the corpus file to the DOT taxonomy on
// stdout.
func classifyRun(s classifySpec) func(cfg config) (*result, error) {
	return func(cfg config) (*result, error) {
		sp, err := startSpawner() // first, while the harness is still small
		if err != nil {
			return nil, err
		}
		defer sp.close()
		p, err := s.prepare(cfg)
		if err != nil {
			return nil, err
		}
		req := spawnReq{
			Args: append(append([]string{filepath.Join(cfg.Bin, "owlclass")}, s.flags()...), p.path),
			Out:  filepath.Join(cfg.Work, "out.dot"),
		}
		fmt.Fprintf(cfg.Log, "op %v\n", req.Args)
		res := newResult()
		chk := &checker{p: p, verdict: map[[32]byte]error{}}
		// One untimed run first, so the binary and corpus are in the page
		// cache before timing starts.
		if warm, err := sp.run(req); err != nil || warm.Err != "" {
			return nil, fmt.Errorf("owlclass: %v %s", err, warm.Err)
		}
		var walls, cpus, rss []float64
		var quiet []bool
		var busy time.Duration
		for deadline := time.Now().Add(cfg.Seconds); res.Attempted == 0 || time.Now().Before(deadline); {
			tot0, st0 := cpuTicks()
			r, err := sp.run(req)
			tot1, st1 := cpuTicks()
			if err != nil {
				return nil, err
			}
			res.op("classify", r.Err != "")
			if r.Err != "" {
				// No classification may fail: a crash fails the run rather
				// than leaving the metrics to the processes that survived.
				res.fail("owlclass: %s", r.Err)
				continue
			}
			out, err := os.ReadFile(req.Out)
			if err != nil {
				return nil, err
			}
			if err := chk.check(out); err != nil {
				res.fail("classify: %v", err)
			}
			walls = append(walls, float64(r.WallNs)/1e6)
			cpus = append(cpus, float64(r.CPUNs)/1e6)
			rss = append(rss, float64(r.MaxRSS)/(1<<20))
			quiet = append(quiet, quietTicks(tot1-tot0, st1-st0))
			busy += time.Duration(r.WallNs)
		}
		if len(walls) == 0 {
			return nil, fmt.Errorf("no owlclass process succeeded; the first: %s", res.problems[0])
		}
		allWalls := walls
		walls, cpus, rss = keepQuiet(quiet, walls), keepQuiet(quiet, cpus), keepQuiet(quiet, rss)
		fmt.Fprintf(cfg.Log, "classify metrics from %d of %d classifications (the rest ran through host steal above 3%%)\n", len(walls), len(allWalls))
		fmt.Fprintf(cfg.Log, "classify n=%d wall_ms p25=%.1f p50=%.1f p75=%.1f max=%.1f cpu_ms p50=%.1f rss_mb p50=%.1f per_s=%.3f distinct_outputs=%d\n",
			len(walls), quantile(walls, .25), median(walls), quantile(walls, .75), quantile(walls, 1), median(cpus), median(rss),
			float64(len(allWalls))/busy.Seconds(), len(chk.verdict))
		res.set("setup_s", "s", p.setupS)
		res.set("latency_p50_ms", "ms", median(walls))
		res.set("cpu_ms_per_op", "ms", median(cpus))
		res.set("rss_mb", "MB", median(rss))
		return res, nil
	}
}

// keepQuiet returns the values of quiet operations, or all of them when
// fewer than a quarter of the operations (or fewer than five) were quiet.
func keepQuiet(quiet []bool, xs []float64) []float64 {
	var out []float64
	for i, q := range quiet {
		if q {
			out = append(out, xs[i])
		}
	}
	if len(out) < 5 || 4*len(out) < len(xs) {
		return xs
	}
	return out
}
