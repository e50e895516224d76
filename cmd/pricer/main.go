// Command pricer prices a single option, the command-line counterpart of
// the Nsp session in the paper's §3.3:
//
//	pricer -model BlackScholes1dim -option CallEuro -method CF_Call \
//	       -p S0=100 -p r=0.05 -p sigma=0.2 -p K=100 -p T=1
//
// Problems can also be saved to and loaded from the nsp save files that
// the communication strategies ship around:
//
//	pricer -model Heston1dim -option PutAmer \
//	       -method MC_AM_Alfonsi_LongstaffSchwartz \
//	       -p S0=100 -p V0=0.04 -p kappa=2 -p theta=0.04 -p sigmaV=0.3 \
//	       -p rhoSV=-0.7 -p K=100 -p T=1 -save fic
//	pricer -load fic
//
// pricer prices in process, on the calling goroutine and the multicore
// kernel (-p threads=N); the farm and its wire are riskserver's and
// farmworker's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"riskbench/internal/premia"
)

// paramFlags collects repeated -p key=value flags.
type paramFlags map[string]float64

func (p paramFlags) String() string { return fmt.Sprint(map[string]float64(p)) }

func (p paramFlags) Set(s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %w", key, err)
	}
	p[key] = v
	return nil
}

func main() {
	params := paramFlags{}
	var (
		model   = flag.String("model", "", "model name (see riskbench -methods)")
		option  = flag.String("option", "", "option name")
		method  = flag.String("method", "", "method name")
		save    = flag.String("save", "", "save the problem to this file instead of pricing")
		load    = flag.String("load", "", "load a problem from this file")
		greeks  = flag.Bool("greeks", false, "also report gamma, vega, theta and rho")
		implied = flag.Float64("implied", 0, "invert this market price to an implied volatility instead of pricing")
	)
	flag.Var(params, "p", "problem parameter key=value (repeatable)")
	flag.Parse()

	var p *premia.Problem
	var err error
	if *load != "" {
		p, err = premia.Load(*load)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		p = premia.New().SetModel(*model).SetOption(*option).SetMethod(*method)
	}
	for k, v := range params {
		p.Set(k, v)
	}
	if *save != "" {
		if err := p.Validate(); err != nil {
			fatalf("%v", err)
		}
		if err := p.Save(*save); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("saved %s to %s\n", p, *save)
		return
	}
	if *implied != 0 {
		iv, err := premia.ImpliedVolFromProblem(p, *implied)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("problem:      %s\n", p)
		fmt.Printf("market price: %.6f\n", *implied)
		fmt.Printf("implied vol:  %.6f\n", iv)
		return
	}
	start := time.Now()
	res, err := p.Compute()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("problem:  %s\n", p)
	fmt.Printf("price:    %.6f", res.Price)
	if res.PriceCI > 0 {
		fmt.Printf("  (95%% CI ± %.6f)", res.PriceCI)
	}
	fmt.Println()
	if res.HasDelta {
		fmt.Printf("delta:    %.6f\n", res.Delta)
	}
	if *greeks {
		g, err := premia.ComputeGreeks(p)
		if err != nil {
			fatalf("greeks: %v", err)
		}
		fmt.Printf("gamma:    %.6f\n", g.Gamma)
		fmt.Printf("vega:     %.6f\n", g.Vega)
		fmt.Printf("theta:    %.6f\n", g.Theta)
		fmt.Printf("rho:      %.6f\n", g.Rho)
	}
	fmt.Printf("elapsed:  %v\n", time.Since(start).Round(time.Microsecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pricer: "+format+"\n", args...)
	os.Exit(1)
}
