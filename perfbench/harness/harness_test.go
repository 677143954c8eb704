package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv(spawnerEnv) == "1" {
		if err := runSpawner(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// buildBinaries builds owlclass and owld from the enclosing checkout.
func buildBinaries(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/owlclass", "./cmd/owld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return root, bin
}

// TestSmoke runs every workload, untraced and traced, on the small
// corpora with the same checks as a full run.
func TestSmoke(t *testing.T) {
	root, bin := buildBinaries(t)
	for name, w := range workloads {
		for trace, run := range []func(config) (*result, error){w.run, w.trace} {
			cfg := config{Root: root, Bin: bin, Work: t.TempDir(), Seed: 7, Seconds: 500 * time.Millisecond, Smoke: true, Log: io.Discard}
			if testing.Verbose() {
				cfg.Log = os.Stdout
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := len(perLayer)
			if trace == 0 {
				want = 4
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
		}
	}
}

// TestCheckRejectsMissingEdge removes one direct edge from a correct DOT
// taxonomy and expects the reference comparison to fail.
func TestCheckRejectsMissingEdge(t *testing.T) {
	c := classifyEL.Smoke
	src, err := c.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	tax, ref, err := reference(c, src, "el", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dot := tax.DOT()
	good, err := dagFromDOT(dot)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDAG(good, ref); err != nil {
		t.Fatalf("correct DOT rejected: %v", err)
	}
	if err := checkProperties(good, toldSubsumptions(src, c.Format)); err != nil {
		t.Fatalf("correct DOT fails the properties: %v", err)
	}
	lines := strings.Split(dot, "\n")
	for i, l := range lines {
		if strings.Contains(l, " -> ") {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	bad, err := dagFromDOT(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDAG(bad, ref); err == nil {
		t.Fatal("a taxonomy missing one edge passed the reference check")
	}
}

// TestPermuteKeepsOntology checks that the seeded renaming changes the
// text but not the ontology's size.
func TestPermuteKeepsOntology(t *testing.T) {
	for _, c := range []corpus{classifyEL.Smoke, classifyDLTableau.Smoke} {
		a, err := c.generate(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.generate(2)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) == string(b) {
			t.Errorf("%s: seeds 1 and 2 give the same text", c.Name)
		}
		oa, err := load(a, c)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := load(b, c)
		if err != nil {
			t.Fatal(err)
		}
		if oa.Metrics() != ob.Metrics() {
			t.Errorf("%s: metrics differ across seeds: %v vs %v", c.Name, oa.Metrics(), ob.Metrics())
		}
	}
}

// TestFailedClassificationFailsRun replaces owlclass with a wrapper that
// runs the real one for the untimed warm-up and fails every later call:
// the run must not report metrics from the processes that survived.
func TestFailedClassificationFailsRun(t *testing.T) {
	root, bin := buildBinaries(t)
	wrapped := t.TempDir()
	marker := filepath.Join(wrapped, "warmed")
	script := "#!/bin/sh\nif [ -e " + marker + " ]; then echo crash >&2; exit 3; fi\n: > " + marker +
		"\nexec " + filepath.Join(bin, "owlclass") + " \"$@\"\n"
	if err := os.WriteFile(filepath.Join(wrapped, "owlclass"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := config{Root: root, Bin: wrapped, Work: t.TempDir(), Seed: 7, Seconds: 300 * time.Millisecond, Smoke: true, Log: io.Discard}
	res, err := classifyRun(classifyDLTableau)(cfg)
	t.Logf("run error: %v", err)
	if err == nil && res.Correct {
		t.Fatalf("a run whose classifications all failed passed: attempted=%d failed=%d", res.Attempted, res.Failed)
	}
}
