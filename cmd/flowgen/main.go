// Command flowgen emits generated traffic workloads for inspection: the
// rule set and a sample of the packet stream, in a human-readable or CSV
// form. It exists so the workloads driving every experiment can be eyeballed
// and diffed across seeds.
//
// Usage:
//
//	flowgen -flows 1000 -rules 5 -sample 20
//	flowgen -scenarios             # print the paper's five configurations
package main

import (
	"flag"
	"fmt"
	"os"

	"halo/internal/trafficgen"
)

func main() {
	var (
		flows     = flag.Int("flows", 1000, "number of flows")
		rules     = flag.Int("rules", 5, "number of wildcard rules")
		sample    = flag.Int("sample", 10, "packets to sample from the stream")
		zipf      = flag.Bool("zipf", false, "zipf popularity")
		seed      = flag.Uint64("seed", 1, "generator seed")
		scenarios = flag.Bool("scenarios", false, "print the paper's five traffic configurations")
		csv       = flag.Bool("csv", false, "emit the packet sample as CSV")
	)
	flag.Parse()
	if err := checkFlags(*flows, *rules); err != nil {
		fmt.Fprintln(os.Stderr, "flowgen:", err)
		os.Exit(2)
	}

	if *scenarios {
		fmt.Println("paper §3.2 traffic configurations:")
		for _, s := range trafficgen.PaperScenarios() {
			pop := "uniform"
			if s.Popularity == trafficgen.Zipf {
				pop = "zipf"
			}
			fmt.Printf("  %-16s %9d flows  %2d rules  %s\n", s.Name, s.Flows, s.Rules, pop)
		}
		return
	}

	pop := trafficgen.Uniform
	if *zipf {
		pop = trafficgen.Zipf
	}
	w := trafficgen.Generate(trafficgen.Scenario{
		Name: "cli", Flows: *flows, Rules: *rules, Popularity: pop,
	}, *seed)

	fmt.Printf("rules (%d):\n", len(w.Rules))
	for i, r := range w.Rules {
		fmt.Printf("  #%-3d %v pattern=%v action=port-%d priority=%d\n",
			i+1, r.Mask, r.Pattern, r.Match.Action.Port, r.Match.Priority)
	}

	fmt.Printf("\npacket sample (%d of a %d-flow stream):\n", *sample, *flows)
	if *csv {
		fmt.Println("src_ip,dst_ip,src_port,dst_port,proto,flow_index,rule")
	}
	for i := 0; i < *sample; i++ {
		pkt, fi := w.NextPacket()
		if *csv {
			fmt.Printf("%d,%d,%d,%d,%d,%d,%d\n",
				pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, pkt.Proto, fi, w.FlowRule[fi]+1)
			continue
		}
		fmt.Printf("  %v  (flow %d, rule %d)\n", pkt.Key(), fi, w.FlowRule[fi]+1)
	}
}

// checkFlags rejects the values trafficgen.Generate would panic on before
// any work starts.
func checkFlags(flows, rules int) error {
	return trafficgen.Scenario{Flows: flows, Rules: rules}.Validate()
}
