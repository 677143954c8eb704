package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"parowl"
)

// dag is a taxonomy as plain data: one node per equivalence class with a
// canonical label (member names sorted, joined by " ≡ ") and its direct
// parents. The harness checks results and answers queries on this form
// with its own code, never through the program's query kernel.
type dag struct {
	label   []string
	parents [][]int
	node    map[string]int // concept name -> node
}

const (
	topName    = "⊤"
	bottomName = "⊥"
)

func canonLabel(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, " ≡ ")
}

func (d *dag) add(names []string) int {
	i := len(d.label)
	d.label = append(d.label, canonLabel(names))
	d.parents = append(d.parents, nil)
	for _, n := range names {
		d.node[n] = i
	}
	return i
}

// dagFromTaxonomy copies a taxonomy, ⊤ and ⊥ included.
func dagFromTaxonomy(t *parowl.Taxonomy) *dag {
	d := &dag{node: map[string]int{}}
	idx := map[*parowl.TaxonomyNode]int{}
	for _, n := range t.Nodes() {
		names := make([]string, len(n.Concepts))
		for i, c := range n.Concepts {
			names[i] = c.String()
		}
		idx[n] = d.add(names)
	}
	for _, n := range t.Nodes() {
		for _, p := range n.Parents() {
			d.parents[idx[n]] = append(d.parents[idx[n]], idx[p])
		}
	}
	return d
}

var (
	dotNode = regexp.MustCompile(`^\s*n(\d+) \[label=(".*")\];$`)
	dotEdge = regexp.MustCompile(`^\s*n(\d+) -> n(\d+);$`)
)

// dagFromDOT parses owlclass -dot output: one node line per class, one
// edge line (child -> parent) per direct subsumption.
func dagFromDOT(s string) (*dag, error) {
	d := &dag{node: map[string]int{}}
	ids := map[string]int{}
	for _, line := range strings.Split(s, "\n") {
		if m := dotNode.FindStringSubmatch(line); m != nil {
			label, err := strconv.Unquote(m[2])
			if err != nil {
				return nil, fmt.Errorf("dot: bad label in %q", line)
			}
			if _, dup := ids[m[1]]; dup {
				return nil, fmt.Errorf("dot: node n%s declared twice", m[1])
			}
			ids[m[1]] = d.add(strings.Split(label, " ≡ "))
		}
	}
	for _, line := range strings.Split(s, "\n") {
		if m := dotEdge.FindStringSubmatch(line); m != nil {
			c, ok1 := ids[m[1]]
			p, ok2 := ids[m[2]]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("dot: edge %q names an undeclared node", line)
			}
			d.parents[c] = append(d.parents[c], p)
		}
	}
	if len(d.label) == 0 {
		return nil, fmt.Errorf("dot: no nodes")
	}
	return d, nil
}

// classes returns the labels of the classes the DOT form shows: every
// node except a ⊥ that holds no named concept.
func (d *dag) classes() map[string]bool {
	out := map[string]bool{}
	for _, l := range d.label {
		if l != bottomName {
			out[l] = true
		}
	}
	return out
}

// edges returns the direct edges between shown classes as "child -> parent".
func (d *dag) edges() map[string]bool {
	out := map[string]bool{}
	for c, ps := range d.parents {
		for _, p := range ps {
			if d.label[c] != bottomName && d.label[p] != bottomName {
				out[d.label[c]+" -> "+d.label[p]] = true
			}
		}
	}
	return out
}

// compareDAG reports how got differs from want, as classes plus direct
// edges, or nil when they agree.
func compareDAG(got, want *dag) error {
	var diffs []string
	diff := func(kind string, g, w map[string]bool) {
		for k := range w {
			if !g[k] {
				diffs = append(diffs, "missing "+kind+" "+k)
			}
		}
		for k := range g {
			if !w[k] {
				diffs = append(diffs, "extra "+kind+" "+k)
			}
		}
	}
	diff("class", got.classes(), want.classes())
	diff("edge", got.edges(), want.edges())
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... %d differences in all", len(diffs)))
	}
	return fmt.Errorf("taxonomy differs from reference: %s", strings.Join(diffs, "; "))
}

// checkProperties checks what must hold of any correct taxonomy: no
// cycles, ⊤ above every class, and every told SubClassOf between named
// concepts entailed.
func checkProperties(d *dag, told [][2]string) error {
	n := len(d.label)
	// Acyclicity by Kahn's algorithm over child -> parent edges.
	indeg := make([]int, n)
	for _, ps := range d.parents {
		for _, p := range ps {
			indeg[p]++
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, p := range d.parents[v] {
			if indeg[p]--; indeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("taxonomy has a cycle (%d of %d classes in a cycle)", n-len(order), n)
	}
	top, ok := d.node[topName]
	if !ok {
		return fmt.Errorf("taxonomy has no ⊤ class")
	}
	// order lists children before parents; walk it backwards so every
	// parent's reachability is known before its children's.
	reachesTop := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		reachesTop[v] = v == top
		for _, p := range d.parents[v] {
			reachesTop[v] = reachesTop[v] || reachesTop[p]
		}
		if !reachesTop[v] {
			return fmt.Errorf("⊤ is not above class %s", d.label[v])
		}
	}
	bottom, hasBottom := d.node[bottomName]
	for _, ax := range told {
		sub, ok1 := d.node[ax[0]]
		sup, ok2 := d.node[ax[1]]
		if !ok1 || !ok2 {
			return fmt.Errorf("told SubClassOf(%s %s) names a concept missing from the taxonomy", ax[0], ax[1])
		}
		if sub == sup || (hasBottom && sub == bottom) || d.ancestorOf(sup, sub) {
			continue
		}
		return fmt.Errorf("told SubClassOf(%s %s) does not hold", ax[0], ax[1])
	}
	return nil
}

// ancestorOf reports whether a is a strict ancestor of v.
func (d *dag) ancestorOf(a, v int) bool {
	seen := map[int]bool{v: true}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parents[x] {
			if p == a {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

var (
	oboStanzaID = regexp.MustCompile(`(?m)^id: (\S+)$`)
	oboIsA      = regexp.MustCompile(`(?m)^is_a: (\S+)`)
	ofnSubClass = regexp.MustCompile(`(?m)^SubClassOf\(([A-Za-z0-9_.-]+) ([A-Za-z0-9_.-]+)\)$`)
)

// toldSubsumptions reads the SubClassOf axioms between two named
// concepts straight from the corpus text.
func toldSubsumptions(src []byte, f parowl.Format) [][2]string {
	var out [][2]string
	if f != parowl.FormatOBO {
		for _, m := range ofnSubClass.FindAllStringSubmatch(string(src), -1) {
			out = append(out, [2]string{m[1], m[2]})
		}
		return out
	}
	for _, st := range strings.Split(string(src), "\n\n") {
		if !strings.HasPrefix(st, "[Term]") {
			continue
		}
		id := oboStanzaID.FindStringSubmatch(st)
		if id == nil {
			continue
		}
		for _, m := range oboIsA.FindAllStringSubmatch(st, -1) {
			out = append(out, [2]string{id[1], m[1]})
		}
	}
	return out
}

// closure is the strict ancestor and descendant sets of every node,
// computed from the parent lists.
type closure struct {
	d    *dag
	anc  [][]uint64
	desc [][]uint64
}

func bitSet(row []uint64, i int)       { row[i/64] |= 1 << (i % 64) }
func bitTest(row []uint64, i int) bool { return row[i/64]&(1<<(i%64)) != 0 }

func newClosure(d *dag) *closure {
	n := len(d.label)
	words := (n + 63) / 64
	c := &closure{d: d, anc: make([][]uint64, n), desc: make([][]uint64, n)}
	for v := range c.anc {
		c.anc[v] = make([]uint64, words)
		c.desc[v] = make([]uint64, words)
	}
	done := make([]bool, n)
	var visit func(v int)
	visit = func(v int) {
		if done[v] {
			return
		}
		done[v] = true
		for _, p := range d.parents[v] {
			visit(p)
			bitSet(c.anc[v], p)
			for w, x := range c.anc[p] {
				c.anc[v][w] |= x
			}
		}
	}
	for v := 0; v < n; v++ {
		visit(v)
	}
	for v := 0; v < n; v++ {
		for a := 0; a < n; a++ {
			if bitTest(c.anc[v], a) {
				bitSet(c.desc[a], v)
			}
		}
	}
	return c
}

func (c *closure) labels(row []uint64, keep func(int) bool) string {
	var out []string
	for i := range c.d.label {
		if bitTest(row, i) && (keep == nil || keep(i)) {
			out = append(out, c.d.label[i])
		}
	}
	if len(out) == 0 {
		return "(none)"
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// answer computes a /query answer in the normalized form normalizeAnswer
// produces from a server response line.
func (c *closure) answer(op string, args []string) (string, error) {
	nodes := make([]int, len(args))
	for i, a := range args {
		v, ok := c.d.node[a]
		if !ok {
			return "", fmt.Errorf("unknown concept %q", a)
		}
		nodes[i] = v
	}
	switch op {
	case "subsumes": // is args[1] ⊑ args[0]?
		return strconv.FormatBool(nodes[0] == nodes[1] || bitTest(c.anc[nodes[1]], nodes[0])), nil
	case "ancestors":
		return c.labels(c.anc[nodes[0]], nil), nil
	case "descendants":
		return c.labels(c.desc[nodes[0]], nil), nil
	case "lca":
		a, b := nodes[0], nodes[1]
		common := make([]uint64, len(c.anc[a]))
		for w := range common {
			common[w] = c.anc[a][w] & c.anc[b][w]
		}
		if a == b || bitTest(c.anc[b], a) {
			bitSet(common, a)
		}
		if bitTest(c.anc[a], b) {
			bitSet(common, b)
		}
		return c.labels(common, func(x int) bool {
			for w, bits := range c.desc[x] {
				if bits&common[w] != 0 {
					return false
				}
			}
			return true
		}), nil
	}
	return "", fmt.Errorf("unsupported op %q", op)
}

// normalizeAnswer reduces one response line "op(args) = value" to its
// value, with every class label's members and the label list sorted.
func normalizeAnswer(line string) string {
	_, v, ok := strings.Cut(line, " = ")
	if !ok {
		return "unparsable: " + line
	}
	if v == "true" || v == "false" || v == "(none)" {
		return v
	}
	parts := strings.Split(v, ", ")
	for i, p := range parts {
		parts[i] = canonLabel(strings.Split(p, " ≡ "))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
