package lint

import (
	"go/token"
	"sort"
	"strings"

	"leveldbpp/internal/lint/lockfacts"
)

// LockOrder builds the global lock-acquisition graph — every site where
// one class lock is taken while another is held, directly or through any
// chain of calls resolved by the lockfacts call graph — and checks it
// against the blessed partial order declared in //lsm:lockorder
// directives:
//
//	//lsm:lockorder lsm.DB.mu < lsm.DB.logMu
//	//lsm:lockorder core.DB.writeMu < lsm.DB.mu < cache.shard.mu
//
// Each chain contributes its adjacent pairs; the blessed order is the
// transitive closure of all chains in the program. Three findings:
//
//   - a cycle in the observed graph (a deadlock candidate) is reported
//     once with the full witness call chain of every hop, naming the
//     intermediate functions;
//   - an acquisition inverting a blessed pair;
//   - an acquisition whose pair no //lsm:lockorder chain covers.
//
// Lock classes are instance-blind (see the lockfacts package doc), so
// acquiring a second instance of a held class is not reported. Suppress
// a single acquisition site with //lsm:lockok.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "lock acquisitions follow the blessed //lsm:lockorder partial order; the observed acquisition graph is acyclic",
	RunProgram: runLockOrder,
}

// lockOrderDirective is one parsed //lsm:lockorder chain.
type lockOrderDirective struct {
	classes []string
	pos     token.Pos
}

func runLockOrder(pass *ProgramPass) {
	directives := collectLockOrderDirectives(pass)
	blessed := map[string]map[string]bool{} // blessed[a][b]: a may be held while acquiring b
	for _, d := range directives {
		for i := 0; i+1 < len(d.classes); i++ {
			addBlessed(blessed, d.classes[i], d.classes[i+1])
		}
	}
	transitiveClose(blessed)
	for _, d := range directives {
		cyclic := false
		for _, c := range d.classes {
			if blessed[c][c] {
				cyclic = true
			}
		}
		if cyclic {
			pass.Reportf(d.pos, "//lsm:lockorder directives form a cycle; the blessed order must be a partial order")
			return
		}
	}

	edges := dedupEdges(pass.Prog.Edges())

	// Pair up the observed class graph. Edges the blessed order covers
	// (either direction) are judged against it — an inversion is reported
	// as an inversion, at the offending site. Cycle detection applies to
	// the uncovered remainder: a cycle there is reported once, with every
	// hop's witness chain, not edge-by-edge.
	first := map[[2]string]lockfacts.Edge{}
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		key := [2]string{e.From, e.To}
		if _, ok := first[key]; !ok {
			first[key] = e
		}
		if !blessed[e.From][e.To] && !blessed[e.To][e.From] {
			addBlessed(adj, e.From, e.To)
		}
	}
	inCycle := cyclicPairs(adj)

	reportedCycles := map[string]bool{}
	for _, e := range edges {
		if inCycle[[2]string{e.From, e.To}] {
			cycle := renderCycle(adj, inCycle, first, e.From)
			if reportedCycles[cycle] {
				continue
			}
			reportedCycles[cycle] = true
			rep := first[[2]string{e.From, e.To}]
			if pass.SuppressedAt(rep.Pos, "lsm:lockok") {
				continue
			}
			pass.Reportf(rep.Pos, "lock-acquisition cycle: %s; break one edge or suppress with //lsm:lockok", cycle)
			continue
		}
		if blessed[e.From][e.To] {
			continue
		}
		if pass.SuppressedAt(e.Pos, "lsm:lockok") {
			continue
		}
		if blessed[e.To][e.From] {
			pass.Reportf(e.Pos, "acquires %s while holding %s (%s), inverting the blessed lock order %s < %s",
				e.To, e.From, e.Path(), e.To, e.From)
			continue
		}
		pass.Reportf(e.Pos, "acquires %s while holding %s (%s); not covered by any //lsm:lockorder chain",
			e.To, e.From, e.Path())
	}
}

// collectLockOrderDirectives parses every //lsm:lockorder comment in the
// program, in deterministic (package, file, position) order.
func collectLockOrderDirectives(pass *ProgramPass) []lockOrderDirective {
	var out []lockOrderDirective
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lsm:lockorder") {
						continue
					}
					spec := strings.TrimSpace(strings.TrimPrefix(text, "lsm:lockorder"))
					var classes []string
					ok := spec != ""
					for _, part := range strings.Split(spec, "<") {
						part = strings.TrimSpace(part)
						if part == "" || strings.ContainsAny(part, " \t") {
							ok = false
							break
						}
						classes = append(classes, part)
					}
					if !ok || len(classes) < 2 {
						pass.Reportf(c.Pos(), "malformed //lsm:lockorder directive; want `//lsm:lockorder A < B [< C ...]`")
						continue
					}
					out = append(out, lockOrderDirective{classes: classes, pos: c.Pos()})
				}
			}
		}
	}
	return out
}

func addBlessed(m map[string]map[string]bool, a, b string) {
	if m[a] == nil {
		m[a] = map[string]bool{}
	}
	m[a][b] = true
}

// transitiveClose closes the relation in place (Floyd–Warshall over the
// handful of declared classes).
func transitiveClose(m map[string]map[string]bool) {
	nodes := relationNodes(m)
	for _, k := range nodes {
		for _, i := range nodes {
			if !m[i][k] {
				continue
			}
			for _, j := range nodes {
				if m[k][j] {
					addBlessed(m, i, j)
				}
			}
		}
	}
}

func relationNodes(m map[string]map[string]bool) []string {
	set := map[string]bool{}
	for a, tos := range m {
		set[a] = true
		for b := range tos {
			set[b] = true
		}
	}
	nodes := make([]string, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// cyclicPairs returns the set of edges that lie inside a cycle of the
// observed class graph: both endpoints reach each other.
func cyclicPairs(adj map[string]map[string]bool) map[[2]string]bool {
	reach := map[string]map[string]bool{}
	for a, tos := range adj {
		for b := range tos {
			addBlessed(reach, a, b)
		}
	}
	transitiveClose(reach)
	out := map[[2]string]bool{}
	for a, tos := range adj {
		for b := range tos {
			if reach[b][a] {
				out[[2]string{a, b}] = true
			}
		}
	}
	return out
}

// renderCycle walks one representative cycle through the cyclic edges
// starting from the lexicographically smallest reachable class, rendering
// every hop with its witness call chain.
func renderCycle(adj map[string]map[string]bool, inCycle map[[2]string]bool, first map[[2]string]lockfacts.Edge, seed string) string {
	// Normalize the starting class so every edge of the same cycle
	// renders the same string.
	members := map[string]bool{seed: true}
	queue := []string{seed}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, b := range sortedSet(adj[a]) {
			if inCycle[[2]string{a, b}] && !members[b] {
				members[b] = true
				queue = append(queue, b)
			}
		}
	}
	start := ""
	for _, m := range sortedBoolSet(members) {
		start = m
		break
	}

	var b strings.Builder
	b.WriteString(start)
	cur := start
	visited := map[string]bool{}
	for {
		visited[cur] = true
		next := ""
		for _, cand := range sortedSet(adj[cur]) {
			if !inCycle[[2]string{cur, cand}] {
				continue
			}
			// Prefer closing the loop, then unvisited nodes.
			if cand == start && len(visited) > 1 {
				next = cand
				break
			}
			if !visited[cand] && next == "" {
				next = cand
			}
		}
		if next == "" {
			break
		}
		e := first[[2]string{cur, next}]
		b.WriteString(" -> ")
		b.WriteString(next)
		b.WriteString(" (via ")
		b.WriteString(e.Path())
		b.WriteString(")")
		if next == start {
			break
		}
		cur = next
	}
	return b.String()
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedBoolSet(m map[string]bool) []string { return sortedSet(m) }

// dedupEdges collapses identical (From, To, Pos) triples — one call site
// resolving to several implementations that all acquire the same class.
func dedupEdges(edges []lockfacts.Edge) []lockfacts.Edge {
	type key struct {
		from, to string
		pos      token.Pos
	}
	seen := map[key]bool{}
	var out []lockfacts.Edge
	for _, e := range edges {
		k := key{e.From, e.To, e.Pos}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}
