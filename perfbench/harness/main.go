// Command perfbench is parowl's end-to-end benchmark harness. It runs one
// workload per invocation against owlclass and owld built from the same
// checkout, checks every output against a reference computed apart from
// the code under test, and prints one JSON result as its last line.
//
//	perfbench -root . -bin .bench_build/bin --workload classify_el --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run that calls the
// layers in-process through parowl's public API (see trace.go). Normally
// started through perfbench/run.sh, which builds the binaries first.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	Root    string        // checkout root
	Bin     string        // directory holding owlclass and owld
	Work    string        // scratch directory for corpora, checkpoints and traces
	Seed    int64         // workload seed
	Seconds time.Duration // measured window
	Smoke   bool          // small corpora; set by the harness's own tests
	Log     io.Writer     // human-readable progress lines
}

// workers is the classification pool size and the serve client's
// connection count: two, or fewer on a smaller host.
func workers() int { return min(2, runtime.NumCPU()) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// opCounts holds attempted/failed per operation class, printed
	// before the result line.
	opCounts map[string][2]int
	// problems lists every correctness failure seen.
	problems []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, opCounts: map[string][2]int{}}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// op records one attempted operation of a class.
func (r *result) op(class string, failed bool) {
	c := r.opCounts[class]
	c[0]++
	r.Attempted++
	if failed {
		c[1]++
		r.Failed++
	}
	r.opCounts[class] = c
}

// fail records a correctness failure; the run exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload: an untraced end-to-end run and a
// traced per-layer run.
type workload struct {
	run   func(cfg config) (*result, error)
	trace func(cfg config) (*result, error)
}

var workloads = map[string]workload{
	"classify_el":         {run: classifyRun(classifyEL), trace: classifyTrace(classifyEL)},
	"classify_dl_filter":  {run: classifyRun(classifyDLFilter), trace: classifyTrace(classifyDLFilter)},
	"classify_dl_tableau": {run: classifyRun(classifyDLTableau), trace: classifyTrace(classifyDLTableau)},
	"serve":               {run: serveRun, trace: serveTrace},
}

func main() {
	if os.Getenv(spawnerEnv) == "1" {
		if err := runSpawner(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spawner:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: classify_el | classify_dl_filter | classify_dl_tableau | serve")
		seed    = flag.Int64("seed", 1, "workload seed (drives corpus naming/ordering and the query mix)")
		seconds = flag.Float64("seconds", 20, "measured window per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("bin", "", "directory holding owlclass and owld (default <root>/.bench_build/bin)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		Root:    absRoot,
		Bin:     *bin,
		Work:    filepath.Join(absRoot, ".bench_build", "work", fmt.Sprintf("%s-%d-t%d", *name, *seed, *trace)),
		Seed:    *seed,
		Seconds: time.Duration(*seconds * float64(time.Second)),
		Log:     os.Stdout,
	}
	if cfg.Bin == "" {
		cfg.Bin = filepath.Join(absRoot, ".bench_build", "bin")
	}
	if err := os.RemoveAll(cfg.Work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printEnv(cfg, *name, *trace)

	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	total0, steal0 := cpuTicks()
	res, err := run(cfg)
	total1, steal1 := cpuTicks()
	if total1 > total0 {
		fmt.Printf("host steal %.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	classes := make([]string, 0, len(res.opCounts))
	for c := range res.opCounts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("ops %-12s attempted=%d failed=%d\n", c, res.opCounts[c][0], res.opCounts[c][1])
	}
	for _, p := range res.problems {
		fmt.Println("MISMATCH:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// quietTicks reports whether the host stole at most 3% of the CPU time
// of an interval. Steal is time the hypervisor ran someone else's work on
// this machine's cores: operations timed through more of it are not
// counted in the metrics, since nothing else may run while one is timed.
func quietTicks(total, steal int64) bool {
	return total > 0 && float64(steal) <= 0.03*float64(total)
}

// printEnv prints the run's environment: host size, Go runtime, the
// checkout's revision and the workload seed.
func printEnv(cfg config, name string, trace int) {
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(cfg.Root), sourceDigest(cfg.Root))
	fmt.Printf("run workload=%s seed=%d seconds=%.1f trace=%d workers=%d\n",
		name, cfg.Seed, cfg.Seconds.Seconds(), trace, workers())
}

// commit names the checkout's git revision, or "unknown" outside a git
// work tree (the benchmark also runs on exported trees).
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root)) // look no further up
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources and module files, so runs
// of the same code can be matched without git.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
