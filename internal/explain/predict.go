package explain

import (
	"fmt"
	"strings"

	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/roofline"
	"ookami/internal/toolchain"
)

// UnknownError reports a query naming an entity the model does not know.
// The server maps it to 404-style "no such resource" responses.
type UnknownError struct {
	Kind string // "kernel", "toolchain" or "machine"
	Name string
}

// Error implements error.
func (e *UnknownError) Error() string { return fmt.Sprintf("unknown %s %q", e.Kind, e.Name) }

// BadRequestError reports a structurally invalid query (bad thread or
// element counts, a toolchain/machine pair that cannot be compiled).
type BadRequestError struct{ Msg string }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Msg }

// Request is one prediction query: what would kernel X compiled by
// toolchain Y cost on machine Z at p threads? Kernel names either a loop
// of the Figure 1-2 suite ("simple", "exp", ...) or an NPB application
// ("BT".."UA", modeled at class C). Machine defaults to the toolchain's
// study machine, Threads to 1, and Elems (loop kernels only) to 1<<20.
type Request struct {
	Kernel    string `json:"kernel"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Elems     int    `json:"elems,omitempty"`
}

// DefaultElems is the element count a loop prediction uses when the
// request leaves it zero.
const DefaultElems = 1 << 20

// Prediction is the typed answer: predicted runtime, the model's
// component breakdown, the kernel's roofline position, and (for
// vectorized loops) the instruction-schedule breakdown.
type Prediction struct {
	Kind      string `json:"kind"` // "loop" or "app"
	Kernel    string `json:"kernel"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`
	Threads   int    `json:"threads"`
	Elems     int    `json:"elems,omitempty"` // loop kernels
	Class     string `json:"class,omitempty"` // app kernels: NPB class

	RuntimeSeconds   float64                 `json:"runtimeSeconds"`
	CyclesPerElement float64                 `json:"cyclesPerElement,omitempty"` // loop kernels
	Parts            perfmodel.NodeTimeParts `json:"parts"`
	Bound            string                  `json:"bound"` // dominating term: "compute" or "memory"

	Roofline      RooflinePoint `json:"roofline"`
	RidgeFlopByte float64       `json:"ridgeFlopByte"`

	Report    []string   `json:"report,omitempty"`    // loop kernels: compile report
	Breakdown *Breakdown `json:"breakdown,omitempty"` // vectorized loop kernels
}

// loopTraffic is the per-element characterization of each loop: real
// flops and DRAM traffic classes, used for the roofline placement and
// the bandwidth side of the runtime prediction. Bytes follow the
// paper's Section III setups — 8-byte doubles, 8-byte indices; gather/
// scatter indices are full random permutations (random traffic), the
// "short" variants stay within 128-byte windows (strided traffic).
type loopTraffic struct {
	flops   float64
	stream  float64
	strided float64
	random  float64
}

// trafficFor returns the traffic model of a loop.
//
//ookami:pure static per-loop table
func trafficFor(l toolchain.Loop) loopTraffic {
	switch l {
	case toolchain.LoopSimple: // y[i] = 2*x[i] + 3*x[i]*x[i]
		return loopTraffic{flops: 3, stream: 16}
	case toolchain.LoopPredicate: // if (x[i] > 0) y[i] = x[i]
		return loopTraffic{flops: 1, stream: 16}
	case toolchain.LoopGather: // y[i] = x[index[i]]
		return loopTraffic{flops: 0, stream: 16, random: 8}
	case toolchain.LoopScatter: // y[index[i]] = x[i]
		return loopTraffic{flops: 0, stream: 16, random: 8}
	case toolchain.LoopShortGather, toolchain.LoopShortScatter:
		return loopTraffic{flops: 0, stream: 16, strided: 8}
	case toolchain.LoopStencil: // out[i] = c0*u[i] + c1*(6 neighbours)
		return loopTraffic{flops: 8, stream: 16}
	case toolchain.LoopPow: // y[i] = pow(x[i], p[i]): two input streams
		return loopTraffic{flops: 20, stream: 24}
	case toolchain.LoopRecip:
		return loopTraffic{flops: 1, stream: 16}
	case toolchain.LoopSqrt:
		return loopTraffic{flops: 1, stream: 16}
	default: // exp, sin: polynomial kernels over one stream
		return loopTraffic{flops: 15, stream: 16}
	}
}

// resolveToolchain finds a toolchain case-insensitively.
//
//ookami:pure read-only registry scan
func resolveToolchain(name string) (toolchain.Toolchain, bool) {
	for _, tc := range toolchain.All {
		if strings.EqualFold(tc.Name, name) {
			return tc, true
		}
	}
	return toolchain.Toolchain{}, false
}

// resolveApp finds an NPB application case-insensitively, returning the
// canonical name. It works on the name list rather than npb.Suite() so
// the certified callers stay free of interface dispatch, which the
// purity firewall cannot resolve.
//
//ookami:pure read-only suite-name scan
func resolveApp(name string) (string, bool) {
	for _, n := range npb.SuiteNames() {
		if strings.EqualFold(n, name) {
			return n, true
		}
	}
	return "", false
}

// resolve validates a request and returns the canonical toolchain and
// machine. The kernel is resolved by the caller (loop vs app).
func resolve(req Request) (toolchain.Toolchain, machine.Machine, error) {
	tc, ok := resolveToolchain(req.Toolchain)
	if !ok {
		return toolchain.Toolchain{}, machine.Machine{}, &UnknownError{Kind: "toolchain", Name: req.Toolchain}
	}
	var m machine.Machine
	if req.Machine == "" {
		m = DefaultMachine(tc)
	} else if m, ok = MachineByName(req.Machine); !ok {
		return toolchain.Toolchain{}, machine.Machine{}, &UnknownError{Kind: "machine", Name: req.Machine}
	}
	if !tc.Supports(m) {
		return toolchain.Toolchain{}, machine.Machine{}, &BadRequestError{
			Msg: fmt.Sprintf("toolchain %s (%s) does not target machine %s (%s)", tc.Name, tc.ForISA, m.Name, m.ISA)}
	}
	if req.Threads < 0 {
		return toolchain.Toolchain{}, machine.Machine{}, &BadRequestError{Msg: "threads must be >= 0"}
	}
	if req.Elems < 0 {
		return toolchain.Toolchain{}, machine.Machine{}, &BadRequestError{Msg: "elems must be >= 0"}
	}
	return tc, m, nil
}

// resolveThreads is the thread count a request models on m: 0 means 1,
// and counts beyond the machine's cores clamp to m.Cores. Key and
// Predict both resolve threads here, so requests that model the same
// run share one cache key.
func resolveThreads(req Request, m machine.Machine) int {
	threads := req.Threads
	if threads == 0 {
		threads = 1
	}
	return min(threads, m.Cores)
}

// Key is the canonical cache key of a request: the full resolved input
// tuple, including defaults. Two requests with equal keys are guaranteed
// byte-identical answers, which is the serve cache's contract.
func (req Request) Key() (string, error) {
	tc, m, err := resolve(req)
	if err != nil {
		return "", err
	}
	threads := resolveThreads(req, m)
	var kernel string
	var elems int
	if l, ok := FindLoop(req.Kernel); ok {
		kernel = l.String()
		elems = req.Elems
		if elems == 0 {
			elems = DefaultElems
		}
	} else if n, ok := resolveApp(req.Kernel); ok {
		kernel = n
	} else {
		return "", &UnknownError{Kind: "kernel", Name: req.Kernel}
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d", kernel, tc.Name, tc.Version, m.Name, threads, elems), nil
}

// Predict answers one what-if query. The result is deterministic in the
// request tuple — the function is certified pure, which is what allows
// the server to coalesce and cache whole responses.
//
//ookami:pure model evaluation over read-only registries
func Predict(req Request) (Prediction, error) {
	tc, m, err := resolve(req)
	if err != nil {
		return Prediction{}, err
	}
	threads := resolveThreads(req, m)
	if l, ok := FindLoop(req.Kernel); ok {
		return predictLoop(tc, l, m, threads, req.Elems)
	}
	if name, ok := resolveApp(req.Kernel); ok {
		return predictApp(tc, name, m, threads), nil
	}
	return Prediction{}, &UnknownError{Kind: "kernel", Name: req.Kernel}
}

// predictLoop models a loop kernel: the instruction-level schedule gives
// the compute rate, the traffic table and the NUMA-aware bandwidth model
// give the memory side, and the roofline combine takes the max.
func predictLoop(tc toolchain.Toolchain, l toolchain.Loop, m machine.Machine, threads, elems int) (Prediction, error) {
	if elems == 0 {
		elems = DefaultElems
	}
	r, err := Explain(tc, l, m)
	if err != nil {
		return Prediction{}, &BadRequestError{Msg: err.Error()}
	}
	var cpe float64
	if r.Vectorized {
		cpe = r.Breakdown.CyclesPerElem
	} else {
		cpe = r.SerialCyclesPerElem
	}

	tr := trafficFor(l)
	n := float64(elems)
	app := perfmodel.AppProfile{
		Name:         l.String(),
		Flops:        tr.flops * n,
		StreamBytes:  tr.stream * n,
		StridedBytes: tr.strided * n,
		RandomBytes:  tr.random * n,
	}

	clockHz := m.ClockAt(threads) * 1e9
	computeSec := cpe * n / (float64(threads) * clockHz)
	streamBW, randomBW := perfmodel.EffectiveBW(m, threads, tc.Placement, 0)
	strided := app.StridedBytes * float64(m.CacheLineB) / 64
	memSec := (app.StreamBytes+strided)/(streamBW*1e9) + app.RandomBytes/(randomBW*1e9)
	parts := perfmodel.NodeTimeParts{Parallel: computeSec, Memory: memSec}

	pt := roofline.Place(m, app)
	return Prediction{
		Kind:             "loop",
		Kernel:           l.String(),
		Toolchain:        tc.Name,
		Machine:          m.Name,
		Threads:          threads,
		Elems:            elems,
		RuntimeSeconds:   parts.Total(),
		CyclesPerElement: cpe,
		Parts:            parts,
		Bound:            parts.Bound(),
		Roofline: RooflinePoint{
			Name:             pt.Name,
			IntensityFlopB:   pt.Intensity,
			AttainableGFLOPS: pt.GFLOPS,
			Bound:            pt.Bound,
		},
		RidgeFlopByte: roofline.Ridge(m),
		Report:        r.Report,
		Breakdown:     r.Breakdown,
	}, nil
}

// predictApp models an NPB application at class C through AppTime — the
// evaluation figures.NPBTime performs — pricing its math loops by direct
// compiles, with the component terms kept.
func predictApp(tc toolchain.Toolchain, name string, m machine.Machine, threads int) Prediction {
	st, _ := npb.StatsByName(name, npb.ClassC)
	parts, total := AppTime(tc, m, name, st, threads, compiledCycles(tc, m))
	pt := roofline.Place(m, st.AppProfile(name))
	return Prediction{
		Kind:           "app",
		Kernel:         name,
		Toolchain:      tc.Name,
		Machine:        m.Name,
		Threads:        threads,
		Class:          string(npb.ClassC),
		RuntimeSeconds: total,
		Parts:          parts,
		Bound:          parts.Bound(),
		Roofline: RooflinePoint{
			Name:             pt.Name,
			IntensityFlopB:   pt.Intensity,
			AttainableGFLOPS: pt.GFLOPS,
			Bound:            pt.Bound,
		},
		RidgeFlopByte: roofline.Ridge(m),
	}
}
