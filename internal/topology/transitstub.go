package topology

import (
	"fmt"
	"math"

	"ace/internal/graph"
	"ace/internal/sim"
)

// TransitStubSpec parameterizes a GT-ITM-style transit-stub topology —
// the explicit AS structure behind the paper's motivation (nodes in the
// same stub domain are milliseconds apart, crossing transit domains
// costs orders of magnitude more). It is the robustness check for the
// BA substrate: ACE's gains must not depend on the generator choice.
type TransitStubSpec struct {
	// TransitDomains is the number of top-level domains (>= 1).
	TransitDomains int
	// TransitSize is the number of routers per transit domain (>= 1).
	TransitSize int
	// StubsPerTransit is how many stub domains hang off each transit
	// router.
	StubsPerTransit int
	// StubSize is the number of nodes per stub domain (>= 1).
	StubSize int
	// IntraStubDelay, StubTransitDelay, IntraTransitDelay and
	// InterTransitDelay are the link delays at each level.
	IntraStubDelay, StubTransitDelay, IntraTransitDelay, InterTransitDelay float64
	// EdgeProb is the probability of extra intra-domain mesh edges
	// beyond the spanning ring (0..1).
	EdgeProb float64
}

// DefaultTransitStubSpec sizes a topology of roughly n nodes with the
// classic delay hierarchy (1 ms inside a stub, 5 ms to the transit
// router, 10 ms inside a transit domain, 40 ms between domains).
func DefaultTransitStubSpec(n int) TransitStubSpec {
	// n ≈ T·S·(1 + P·Z): pick T transit domains of S routers with P
	// stubs of Z nodes each.
	t := int(math.Max(2, math.Cbrt(float64(n))/3))
	s := 4
	p := 3
	z := n/(t*s*p) - 1
	if z < 2 {
		z = 2
	}
	return TransitStubSpec{
		TransitDomains:    t,
		TransitSize:       s,
		StubsPerTransit:   p,
		StubSize:          z,
		IntraStubDelay:    1,
		StubTransitDelay:  5,
		IntraTransitDelay: 10,
		InterTransitDelay: 40,
		EdgeProb:          0.3,
	}
}

func (s TransitStubSpec) validate() error {
	if s.TransitDomains < 1 || s.TransitSize < 1 || s.StubsPerTransit < 0 || s.StubSize < 1 {
		return fmt.Errorf("topology: bad transit-stub sizes %+v", s)
	}
	for _, d := range []float64{s.IntraStubDelay, s.StubTransitDelay, s.IntraTransitDelay, s.InterTransitDelay} {
		if !(d > 0) || !finiteDelay(d) {
			return fmt.Errorf("topology: transit-stub delays must be finite and positive")
		}
	}
	if s.EdgeProb < 0 || s.EdgeProb > 1 {
		return fmt.Errorf("topology: EdgeProb %v outside [0,1]", s.EdgeProb)
	}
	return nil
}

// Nodes reports the total node count the spec produces.
func (s TransitStubSpec) Nodes() int {
	return s.TransitDomains * s.TransitSize * (1 + s.StubsPerTransit*s.StubSize)
}

// GenerateTransitStub builds the hierarchy: a ring+mesh of transit
// domains, a ring+mesh inside each domain, and a ring+mesh stub domain
// hanging off every transit router. Node positions are synthesized per
// domain for consistency with the Physical interface.
func GenerateTransitStub(rng *sim.RNG, spec TransitStubSpec) (*Physical, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := spec.Nodes()
	g := graph.New(n)
	pos := make([]Point, n)
	next := 0
	alloc := func(cx, cy, radius float64) int {
		id := next
		next++
		pos[id] = Point{
			X: clamp01(cx + radius*(rng.Float64()-0.5)),
			Y: clamp01(cy + radius*(rng.Float64()-0.5)),
		}
		return id
	}

	// ringMesh wires ids into a ring plus random chords with prob p.
	ringMesh := func(ids []int, delay float64) {
		for i := range ids {
			if len(ids) > 1 {
				j := (i + 1) % len(ids)
				if i < j || len(ids) > 2 {
					if !g.HasEdge(ids[i], ids[j]) {
						g.AddEdge(ids[i], ids[j], delay)
					}
				}
			}
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 2; j < len(ids); j++ {
				if rng.Float64() < spec.EdgeProb && !g.HasEdge(ids[i], ids[j]) {
					g.AddEdge(ids[i], ids[j], delay)
				}
			}
		}
	}

	grid := int(math.Ceil(math.Sqrt(float64(spec.TransitDomains))))
	transitRouters := make([][]int, spec.TransitDomains)
	for d := 0; d < spec.TransitDomains; d++ {
		cx := (float64(d%grid) + 0.5) / float64(grid)
		cy := (float64(d/grid) + 0.5) / float64(grid)
		routers := make([]int, spec.TransitSize)
		for r := range routers {
			routers[r] = alloc(cx, cy, 0.05)
		}
		ringMesh(routers, spec.IntraTransitDelay)
		transitRouters[d] = routers

		for _, router := range routers {
			for sdx := 0; sdx < spec.StubsPerTransit; sdx++ {
				stub := make([]int, spec.StubSize)
				scx := clamp01(cx + 0.1*(rng.Float64()-0.5))
				scy := clamp01(cy + 0.1*(rng.Float64()-0.5))
				for z := range stub {
					stub[z] = alloc(scx, scy, 0.02)
				}
				ringMesh(stub, spec.IntraStubDelay)
				g.AddEdge(router, stub[0], spec.StubTransitDelay)
				if spec.StubSize > 1 {
					g.AddEdge(router, stub[spec.StubSize/2], spec.StubTransitDelay)
				}
			}
		}
	}
	// Inter-transit backbone: ring over domains plus random chords.
	for d := 0; d < spec.TransitDomains; d++ {
		e := (d + 1) % spec.TransitDomains
		if d != e && !g.HasEdge(transitRouters[d][0], transitRouters[e][0]) {
			g.AddEdge(transitRouters[d][0], transitRouters[e][0], spec.InterTransitDelay)
		}
	}
	for d := 0; d < spec.TransitDomains; d++ {
		for e := d + 2; e < spec.TransitDomains; e++ {
			if rng.Float64() < spec.EdgeProb {
				a := transitRouters[d][rng.Intn(spec.TransitSize)]
				b := transitRouters[e][rng.Intn(spec.TransitSize)]
				if !g.HasEdge(a, b) {
					g.AddEdge(a, b, spec.InterTransitDelay)
				}
			}
		}
	}
	return &Physical{Graph: g, Pos: pos, Model: "transit-stub", Degree: 0}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
