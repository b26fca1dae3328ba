// Package topology generates synthetic Internet-like physical topologies.
//
// The paper (§4.1) generates physical topologies with BRITE using the
// Barabási–Albert model, citing that BA topologies exhibit the power-law
// and small-world properties measured on the real Internet. BRITE is a
// Java tool we cannot ship, so this package reimplements its BA mode:
// incremental growth with preferential attachment over nodes placed on a
// unit plane, link delays proportional to Euclidean distance. A Waxman
// generator is included as the classical flat-random baseline, and
// Properties measures the power-law / small-world statistics the paper
// relies on so tests can verify the substitution.
package topology

import (
	"fmt"
	"math"
	"sort"

	"ace/internal/graph"
	"ace/internal/sim"
)

// Point is a node position on the unit plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Physical is a generated physical network: an undirected graph whose
// edge weights are link delays in milliseconds, plus node placement.
type Physical struct {
	Graph  *graph.Graph
	Pos    []Point
	Model  string // "ba" or "waxman"
	Degree int    // generator parameter m
}

// BASpec parameterizes the Barabási–Albert generator.
type BASpec struct {
	// N is the number of nodes (>= 2).
	N int
	// M is the number of links each arriving node creates (>= 1).
	// The resulting mean degree approaches 2·M.
	M int
	// MinDelay and DelayScale map plane distance to link delay:
	// delay = MinDelay + DelayScale·dist, with dist in [0, √2].
	MinDelay, DelayScale float64
	// LocalityExp is the distance exponent of the attachment rule
	// Π(i) ∝ degree(i)/dist^LocalityExp (Yook–Jeong–Barabási growth).
	// 0 recovers pure BA; the measured Internet value is ≈ 1. Locality
	// is what gives the delay metric the same-AS-cheap /
	// cross-continent-expensive structure the mismatch problem (and the
	// paper's MSU-vs-Tsinghua example) is about.
	LocalityExp float64
}

// DefaultBASpec mirrors the paper-scale defaults: BRITE's usual m = 2,
// a delay range that makes cross-plane links roughly 40× the shortest
// local links, and Internet-measured attachment locality.
func DefaultBASpec(n int) BASpec {
	return BASpec{N: n, M: 2, MinDelay: 1, DelayScale: 40, LocalityExp: 1}
}

func (s BASpec) validate() error {
	if s.N < 2 {
		return fmt.Errorf("topology: BA needs N >= 2, got %d", s.N)
	}
	if s.M < 1 {
		return fmt.Errorf("topology: BA needs M >= 1, got %d", s.M)
	}
	if s.M >= s.N {
		return fmt.Errorf("topology: BA needs M < N, got M=%d N=%d", s.M, s.N)
	}
	if !finiteDelay(s.MinDelay) || !finiteDelay(s.DelayScale) {
		return fmt.Errorf("topology: delay parameters must be finite and non-negative")
	}
	if s.LocalityExp < 0 {
		return fmt.Errorf("topology: negative locality exponent")
	}
	return nil
}

// GenerateBA builds a Barabási–Albert topology: it seeds a clique of M+1
// nodes, then each arriving node links to M distinct existing nodes
// chosen with probability Π(i) ∝ degree(i)/dist(u,i)^LocalityExp — pure
// preferential attachment when LocalityExp is 0, Internet-like locality
// at the default of 1.
func GenerateBA(rng *sim.RNG, spec BASpec) (*Physical, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	g := graph.New(spec.N)
	pos := place(rng, spec.N)
	delay := func(u, v int) float64 {
		return spec.MinDelay + spec.DelayScale*pos[u].Dist(pos[v])
	}

	seed := spec.M + 1
	if seed > spec.N {
		seed = spec.N
	}
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			g.AddEdge(u, v, delay(u, v))
		}
	}
	// Weighted distinct sampling over existing nodes. The weight array
	// is rebuilt per arrival; prefix sums give O(log n) draws.
	weights := make([]float64, spec.N)
	for u := seed; u < spec.N; u++ {
		total := 0.0
		for v := 0; v < u; v++ {
			w := float64(g.Degree(v))
			switch spec.LocalityExp {
			case 0:
			case 1: // fast path for the default exponent
				w /= pos[u].Dist(pos[v]) + 1e-3
			default:
				w /= math.Pow(pos[u].Dist(pos[v])+1e-3, spec.LocalityExp)
			}
			total += w
			weights[v] = total // prefix sum
		}
		for made := 0; made < spec.M; {
			x := rng.Float64() * total
			v := sort.SearchFloat64s(weights[:u], x)
			if v >= u {
				v = u - 1
			}
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v, delay(u, v))
				made++
			}
		}
	}
	return &Physical{Graph: g, Pos: pos, Model: "ba", Degree: spec.M}, nil
}

// WaxmanSpec parameterizes the Waxman generator: each node pair links
// with probability Alpha·exp(−dist/(Beta·√2)).
type WaxmanSpec struct {
	N           int
	Alpha, Beta float64
	MinDelay    float64
	DelayScale  float64
}

// GenerateWaxman builds a Waxman random topology and then links each
// isolated component to the giant component so the result is connected
// (BRITE applies the same post-pass).
func GenerateWaxman(rng *sim.RNG, spec WaxmanSpec) (*Physical, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("topology: Waxman needs N >= 2, got %d", spec.N)
	}
	if spec.Alpha <= 0 || spec.Beta <= 0 {
		return nil, fmt.Errorf("topology: Waxman needs positive Alpha/Beta")
	}
	if !finiteDelay(spec.MinDelay) || !finiteDelay(spec.DelayScale) {
		return nil, fmt.Errorf("topology: delay parameters must be finite and non-negative")
	}
	g := graph.New(spec.N)
	pos := place(rng, spec.N)
	maxDist := math.Sqrt2
	for u := 0; u < spec.N; u++ {
		for v := u + 1; v < spec.N; v++ {
			d := pos[u].Dist(pos[v])
			if rng.Float64() < spec.Alpha*math.Exp(-d/(spec.Beta*maxDist)) {
				g.AddEdge(u, v, spec.MinDelay+spec.DelayScale*d)
			}
		}
	}
	// Connect stray components to node 0's component.
	label, count := graph.Components(g)
	for count > 1 {
		for v := 0; v < spec.N; v++ {
			if label[v] != label[0] {
				g.AddEdge(0, v, spec.MinDelay+spec.DelayScale*pos[0].Dist(pos[v]))
				break
			}
		}
		label, count = graph.Components(g)
	}
	return &Physical{Graph: g, Pos: pos, Model: "waxman", Degree: 0}, nil
}

// finiteDelay reports whether d can parameterize link delays: NaN,
// infinite or negative delays would reach graph.AddEdge as NaN or
// negative weights.
func finiteDelay(d float64) bool { return d >= 0 && !math.IsInf(d, 1) }

func place(rng *sim.RNG, n int) []Point {
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pos
}
