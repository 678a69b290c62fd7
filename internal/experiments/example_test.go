package experiments_test

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// printStacks prints CPI stacks side by side, one component a row.
func printStacks(names []string, stacks ...sim.Stack) {
	fmt.Printf("%-10s", "component")
	for _, n := range names {
		fmt.Printf(" %14s", n)
	}
	fmt.Println()
	for _, c := range sim.Components() {
		fmt.Printf("%-10s", c)
		for _, st := range stacks {
			fmt.Printf(" %14.3f", st.Cycles[c])
		}
		fmt.Println()
	}
}

// The smallest end-to-end use of the library: simulate the cpu2006-like
// suite on the Core 2-like machine, collecting exactly the performance
// counters perfmon reads on real hardware, fit the mechanistic-empirical
// model to those counters, judge it, and read one workload's CPI stack
// off it.
func ExampleProvider_Fitted() {
	prov := experiments.NewProvider(experiments.Options{NumOps: 20000, FitStarts: 2})
	f, err := prov.Fitted(uarch.CoreTwo(), "cpu2006")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f.Model)
	_, acc := experiments.Score(f.Model, f.Obs)
	fmt.Printf("avg err %.1f%%, max %.1f%%, %.0f%% of workloads < 20%%\n",
		100*acc.AvgRelErr, 100*acc.MaxRelErr, 100*acc.FracBelow20Pct)

	o, err := f.Observation("mcf")
	if err != nil {
		log.Fatal(err)
	}
	printStacks([]string{"mcf"}, f.Model.Stack(o.Feat))
	fmt.Printf("measured CPI %.3f, predicted %.3f\n", o.MeasuredCPI, f.Model.PredictCPI(o.Feat))
	// Output:
	// mecpi model (D=4, cfe=14, cL2=19, cL3=0, cmem=169, cTLB=30)
	//   branch: b1=6.5 b2=0.2073 b3=0 b4=0
	//   mlp:    b5=3.74 b6=0.1935 b7=0
	//   stall:  b8=0.002001 b9=3.043e-08 b10=0.1523
	// avg err 10.4%, max 40.5%, 82% of workloads < 20%
	// component             mcf
	// base                0.250
	// icache-L2           0.000
	// icache-L3           0.000
	// icache-mem          0.092
	// itlb                0.002
	// branch              0.025
	// llc-load            9.628
	// dtlb                1.222
	// resource            0.000
	// measured CPI 18.871, predicted 11.219
}

// Model a processor that does not exist: a Core 2 with a much deeper
// front end, a doubled window and slower memory, fitted side by side
// with the stock machine. The deeper pipeline shows up as a larger
// branch component in the stack of twolf, the branchiest cpu2000-like
// workload.
func ExampleNewCustomLab() {
	deep := uarch.CoreTwo()
	deep.Name = "core2-deep"
	deep.FrontEndDepth = 28
	deep.ROBSize = 192
	deep.IQSize = 64
	deep.MemLat = 240

	suite := suites.CPU2000Like(suites.Options{NumOps: 20000})
	machines := []*uarch.Machine{uarch.CoreTwo(), deep}
	lab, err := experiments.NewCustomLab(machines, []suites.Suite{suite},
		experiments.Options{NumOps: 20000, FitStarts: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := lab.Simulate(); err != nil {
		log.Fatal(err)
	}
	var names []string
	var stacks []sim.Stack
	for _, m := range machines {
		model, err := lab.Model(m.Name, suite.Name)
		if err != nil {
			log.Fatal(err)
		}
		obs, err := lab.Observations(m.Name, suite.Name)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range obs {
			if o.Name == "twolf" {
				names = append(names, m.Name)
				stacks = append(stacks, model.Stack(o.Feat))
			}
		}
	}
	printStacks(names, stacks...)
	sb, cb := stacks[0].Cycles[sim.CompBranch], stacks[1].Cycles[sim.CompBranch]
	fmt.Printf("branch component ×%.1f from the deeper pipeline\n", cb/sb)
	// Output:
	// component           core2     core2-deep
	// base                0.250          0.250
	// icache-L2           0.000          0.000
	// icache-L3           0.000          0.000
	// icache-mem          0.332          0.472
	// itlb                0.005          0.005
	// branch              1.250          1.922
	// llc-load           14.719         20.861
	// dtlb                0.639          0.638
	// resource            0.000          0.000
	// branch component ×1.5 from the deeper pipeline
}

// Use CPI stacks to guide a software optimization. A pointer-chasing
// graph kernel is measured on the Core i7-like machine and explained by
// the machine's model, fitted from the cpu2006-like suite (the kernel
// is not in the training set). Its stack is dominated by last-level
// cache loads that barely overlap; a data-layout rewrite (indices
// instead of pointers, blocked traversal) removes the chase, and the
// stacks explain both the speedup and what is left.
func ExampleLab_Model() {
	kernel := trace.Spec{
		Name:             "graphkernel-v1",
		Seed:             2024,
		NumOps:           20000,
		LoadFrac:         0.32,
		StoreFrac:        0.08,
		FPFrac:           0.02,
		MulFrac:          0.02,
		DivFrac:          0.002,
		BranchHardFrac:   0.25,
		CodeFootprint:    64 << 10,
		CodeLocality:     0.8,
		DataFootprint:    200 << 20,
		DataLocality:     0.05,
		PointerChaseFrac: 0.55,
		DepDistMean:      7,
		LongChainFrac:    0.12,
		FusibleFrac:      0.45,
	}
	rewritten := kernel
	rewritten.Name = "graphkernel-v2"
	rewritten.PointerChaseFrac = 0.05
	rewritten.DataLocality = 0.55
	rewritten.HotBytes = 64 << 10

	i7 := uarch.CoreI7()
	app := suites.Suite{Name: "app", Workloads: []trace.Spec{kernel, rewritten}}
	training := suites.CPU2006Like(suites.Options{NumOps: 20000})
	lab, err := experiments.NewCustomLab([]*uarch.Machine{i7}, []suites.Suite{training, app},
		experiments.Options{NumOps: 20000, FitStarts: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := lab.Simulate(); err != nil {
		log.Fatal(err)
	}
	model, err := lab.Model(i7.Name, training.Name)
	if err != nil {
		log.Fatal(err)
	}
	obs, err := lab.Observations(i7.Name, app.Name)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	var stacks []sim.Stack
	for _, o := range obs {
		r, err := lab.Run(i7.Name, app.Name, o.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: measured CPI %.3f, oracle MLP %.2f, model MLP %.2f\n",
			o.Name, o.MeasuredCPI, r.MeasuredMLP, model.MLP(o.Feat))
		names = append(names, o.Name)
		stacks = append(stacks, model.Stack(o.Feat))
	}
	printStacks(names, stacks...)
	fmt.Printf("speedup %.2fx\n", obs[0].MeasuredCPI/obs[1].MeasuredCPI)
	// Output:
	// graphkernel-v1: measured CPI 22.134, oracle MLP 1.39, model MLP 2.49
	// graphkernel-v2: measured CPI 6.737, oracle MLP 1.71, model MLP 2.05
	// component  graphkernel-v1 graphkernel-v2
	// base                0.250          0.250
	// icache-L2           0.000          0.000
	// icache-L3           0.000          0.000
	// icache-mem          0.174          0.164
	// itlb                0.005          0.005
	// branch              1.285          1.144
	// llc-load           10.311          4.193
	// dtlb                1.800          0.036
	// resource            0.000          0.000
	// speedup 3.29x
}
