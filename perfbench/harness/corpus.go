package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"parowl"
)

// corpus is one generated ontology. Its structure is fixed by the
// generator profile, scale and seed; the workload seed only renames the
// concepts and reorders the axioms (see permute), so every run classifies
// the same ontology presented differently and the measured cost does not
// jump with the generator's draw of hard tests.
type corpus struct {
	Name    string // short id used in file names and owld ids
	Profile string
	Scale   int
	GenSeed int64
	Format  parowl.Format
}

func (c corpus) ext() string {
	if c.Format == parowl.FormatOBO {
		return ".obo"
	}
	return ".ofn"
}

func (c corpus) String() string {
	return fmt.Sprintf("%s-mini/%d (generator seed %d, %s)", c.Profile, c.Scale, c.GenSeed, c.Format)
}

// serialize generates the corpus and writes it in its format: the set-up
// work parowl does for a run, before the harness's permutation.
func (c corpus) serialize() ([]byte, error) {
	p, ok := parowl.ProfileByName(c.Profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", c.Profile)
	}
	if c.Scale > 1 {
		p = parowl.MiniProfile(p, c.Scale)
	}
	ont, err := parowl.NewEngine().Generate(p, c.GenSeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ont.Write(&buf, c.Format); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// generate serializes the corpus and applies the run's permutation.
func (c corpus) generate(seed int64) ([]byte, error) {
	b, err := c.serialize()
	if err != nil {
		return nil, err
	}
	return permute(b, c.Format, seed), nil
}

// timedGenerate generates the corpus reps times and returns the permuted
// bytes and the median time of Engine.Generate plus Ontology.Write in
// seconds (the set-up cost of a run). The permutation is harness code and
// runs outside the timer.
func (c corpus) timedGenerate(seed int64, reps int) ([]byte, float64, error) {
	var (
		src   []byte
		times []float64
	)
	for i := 0; i < reps; i++ {
		runtime.GC() // start every repetition from the same heap state
		start := time.Now()
		b, err := c.serialize()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		src = b
	}
	return permute(src, c.Format, seed), median(times), nil
}

var conceptID = regexp.MustCompile(`_C(\d+)\b`)

// permute renames every generated concept (…_C00042) through a seeded
// permutation of the concept numbers and shuffles the axiom lines (OWL
// functional syntax) or term stanzas (OBO). The result is the same
// ontology up to renaming.
func permute(src []byte, f parowl.Format, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var ids []string
	for _, m := range conceptID.FindAllSubmatch(src, -1) {
		if id := string(m[1]); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	perm := append([]string(nil), ids...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	rename := make(map[string]string, len(ids))
	for i, id := range ids {
		rename[id] = perm[i]
	}
	text := conceptID.ReplaceAllStringFunc(string(src), func(m string) string { return "_C" + rename[m[2:]] })

	if f == parowl.FormatOBO {
		parts := strings.Split(strings.TrimRight(text, "\n"), "\n\n")
		stanzas := parts[1:]
		rng.Shuffle(len(stanzas), func(i, j int) { stanzas[i], stanzas[j] = stanzas[j], stanzas[i] })
		return []byte(strings.Join(parts, "\n\n") + "\n")
	}
	var head, body []string
	for _, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(l, "Prefix(") || strings.HasPrefix(l, "Ontology("):
			head = append(head, l)
		case l != "" && l != ")":
			body = append(body, l)
		}
	}
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	return []byte(strings.Join(append(append(head, body...), ")"), "\n") + "\n")
}

// load parses corpus bytes into a fresh handle.
func load(src []byte, c corpus) (*parowl.Ontology, error) {
	return parowl.NewEngine().Load(bytes.NewReader(src), c.Name, c.Format)
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
