// Command benchgen emits the synthetic ISCAS'89 stand-in circuits in
// .bench format, for use with atpgrun -f or external tools.
//
// Usage:
//
//	benchgen -name s953                 # standard stand-in to stdout
//	benchgen -name s953 -seed 7         # alternative structure
//	benchgen -i 20 -o 10 -ff 30 -gates 400 -name custom
//	benchgen -list                      # available standard profiles
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bench89"
	"repro/internal/cli"
	"repro/internal/netlist"
)

const prog = "benchgen"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet(prog, stderr)
	var (
		name  = fs.String("name", "", "standard profile name, or the circuit name with custom -i/-o/-ff/-gates")
		seed  = fs.Int64("seed", 0, "override the structure seed (0 keeps the profile default)")
		in    = fs.Int("i", 0, "custom: primary inputs")
		out   = fs.Int("o", 0, "custom: primary outputs")
		ff    = fs.Int("ff", 0, "custom: flip-flops")
		gates = fs.Int("gates", 0, "custom: approximate gate count")
		list  = fs.Bool("list", false, "list the standard profiles and exit")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	if *list {
		for _, p := range bench89.StandardProfiles() {
			fmt.Fprintf(stdout, "%-8s I=%-3d O=%-3d FF=%-4d gates~%d\n", p.Name, p.Inputs, p.Outputs, p.DFFs, p.Gates)
		}
		return 0
	}
	if *name == "" {
		return cli.Exitf(stderr, prog, cli.ExitUsage, "-name required; see -help")
	}
	prof, ok := bench89.ProfileByName(*name)
	if !ok {
		if *in <= 0 || *out <= 0 || *gates <= 0 {
			return cli.Exitf(stderr, prog, cli.ExitUsage, "%q is not a standard profile; custom profiles need -i, -o and -gates", *name)
		}
		prof = bench89.Profile{Name: *name, Inputs: *in, Outputs: *out, DFFs: *ff, Gates: *gates, Seed: 1}
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	c, err := bench89.Generate(prof)
	if err == nil {
		err = netlist.WriteBench(stdout, c)
	}
	if err != nil {
		return cli.Exitf(stderr, prog, cli.ExitRuntime, "%v", err)
	}
	return 0
}
