package soc

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/wrapper"
)

// builtNetlistDigests pins the SHA-256 of netlist.BenchString for every
// circuit the library builds programmatically: the six stand-ins as
// cmd/benchgen prints them, the live SOC1/SOC2 core instances, their
// wrapped versions (with the wrapper-cell IDs) and the flattened SOCs. Gate
// IDs follow from construction order, so any change to how a builder or
// the parser orders gates shows up here.
var builtNetlistDigests = map[string]string{
	"SOC1@0.4/core1(s713)":           "2dad4f7e3f8785b58a41c37d4f7c4cc54055efc6b4955c7da3b29f5bde82d383",
	"SOC1@0.4/core1(s713)/wrapped":   "0aae337d96ea42d8af66d33944d99b9f6f9f9c043478689e2aba0b0d2f9b6f7b",
	"SOC1@0.4/core2(s953)":           "84b66e3df049c6eb3c6d2e518f55432eb167eb11ffcecd02e98758ba117e20b5",
	"SOC1@0.4/core2(s953)/wrapped":   "e92bca545ef7a62f92a84b0a11afb6fd106c20e12a4ed1cc902dc64dc205bc0f",
	"SOC1@0.4/core3(s1423)":          "d9ef1e2e35557bcfc6b5161c957b1999399d04501e846d885040022b1e80e82d",
	"SOC1@0.4/core3(s1423)/wrapped":  "21159437c8310326a2edb3f81ca48f77207455ebc4056cedffa03cd1f289a2c5",
	"SOC1@0.4/core4(s1423)":          "c7232365bcbde832cfeab7f65cdc870ecd30d2c396938f49430fbc9b84911517",
	"SOC1@0.4/core4(s1423)/wrapped":  "bab1a7de620184079f9f03be8b7eb2c0340b08e522c2484ab9414eeaf099bd22",
	"SOC1@0.4/core5(s1423)":          "54be11a709d6e283cd223f3577fb509ff409803029992644929c8e57ea94b05f",
	"SOC1@0.4/core5(s1423)/wrapped":  "a9979a95384052a9589190d6a30b3e79488b4a76dc7f99f63d2f140895ab2f29",
	"SOC1@0.4/flat/seed1":            "e480a9017fa094ec583a75c6006417896b7ec5ebd734b0ede3f3823d6e63f47e",
	"SOC1@0.4/flat/seed2":            "8680c4a90bb82ea3f9979c387b25f06406faacab53ca86178bed116a8bb6aa00",
	"SOC1@0.4/flat/seed3":            "2b0f6f60903ab30dcbfde84e4d4eea348ca59adb302adaf707a7194471d9d511",
	"SOC1@1/core1(s713)":             "59d67e9d2c67448931c72f99fb85c011b4e625a5770d2725052198e9875b4e69",
	"SOC1@1/core1(s713)/wrapped":     "48e72b9add9753e5736484410b8a311393346379b7161ed3191ef21270a51554",
	"SOC1@1/core2(s953)":             "ac6618d9325069963a33ae04a6815ac03298d1f88f974f3fddfb3f171dce0203",
	"SOC1@1/core2(s953)/wrapped":     "41a5bd0c9de60b3ffbdb80c136ada1474c6dccbfb54a44e560fa2717ded28e83",
	"SOC1@1/core3(s1423)":            "e7403ba653db08e688f26a0065098b019fec726a256bc06495c37c8f013ec8c9",
	"SOC1@1/core3(s1423)/wrapped":    "0a44bba98dbda968c51a794cf42c608a71c3a3df8b6591059a285e4987bc1ef8",
	"SOC1@1/core4(s1423)":            "26a57692e84a033cb4603ec572ff12e16d7747e0f49bf985f47ac556222dfa3e",
	"SOC1@1/core4(s1423)/wrapped":    "9877d60405a137fbbcf2d5e2cccaa5c7e27caa2032ced398c52c1fc29cd937d4",
	"SOC1@1/core5(s1423)":            "5e5592aed325742b5c2a9598d3248fed536a86e855c40728e50ead4c332ac6e5",
	"SOC1@1/core5(s1423)/wrapped":    "e78d0f7c4ab3c998e97c6f6c23a2006b6d21793cfad057052d186d51521280e9",
	"SOC1@1/flat/seed1":              "37064125bf45b6b0ad8ba408e8e4fb7673d0f35541bc2fa895c4b430b5038971",
	"SOC1@1/flat/seed2":              "f6cde1be28a1045e9a7b254410b4c4a29453066fdc3e8f0b994f87e011764e0d",
	"SOC1@1/flat/seed3":              "6c7e6b0a7c85f9d7ae953dc78f9a433f202bd84dc110640a99d014ec64ba688a",
	"SOC2@0.4/core1(s953)":           "029211455ab91abd091c947722a24f3aa15f7e1f61a83675ff743dbdd302f898",
	"SOC2@0.4/core1(s953)/wrapped":   "7418344b4c90ae4890956d0286f8edb7c15c22d8ce122afaaedf4b7508d973f7",
	"SOC2@0.4/core2(s5378)":          "dbb2f5883ae0f74ff3857a3c22255136ed7862fdb0e4bfcf35c82823f130d56d",
	"SOC2@0.4/core2(s5378)/wrapped":  "6c0ba2ba911c43852c2497864bea8f2073347058ab13577aa12c1dcc9f2297d0",
	"SOC2@0.4/core3(s13207)":         "678e97cfc4792ec1eb7128d75aa3ae7222b4d5cbfb785645156c17436fe27c0c",
	"SOC2@0.4/core3(s13207)/wrapped": "16ce94557a554a3d9161f757a1f33d6cfd38924cee61402e3b482e4b3da4b630",
	"SOC2@0.4/core4(s15850)":         "e6d44a1ce9a9147231f29b197599da109a568305413ee2bb86043e81c22f3f4c",
	"SOC2@0.4/core4(s15850)/wrapped": "e5cd7246555ade3c5a46e6c5b507fb8a8cfe04d712d0b85b602e194422d25735",
	"SOC2@0.4/flat/seed1":            "140308797ceab712af04b99b5b44ffec5771bc95617155ebd6c0939c99073b90",
	"SOC2@0.4/flat/seed2":            "bb74ad03fa3b0beac1dc66219ed5369ea228da1ba5080b9c91eced98d44846f2",
	"SOC2@0.4/flat/seed3":            "7c09f2375d52abb6d0062a1ea5cdd04c01b2cf0672a28d2ee8a0340db5949d15",
	"SOC2@1/core1(s953)":             "256b0e73bfd96206235d9000e526d5ba7720a3f34fd0b4cd36749e5b968b0b26",
	"SOC2@1/core1(s953)/wrapped":     "c50202519e2d0e6173d47c7a7d94b6e8fc0e33a1be403baacefa0867cca05db5",
	"SOC2@1/core2(s5378)":            "72f27f0593df71d419fa6b2aaec19f47321702e4802f6ccedf90f894114a51b6",
	"SOC2@1/core2(s5378)/wrapped":    "c754b93ba4a26e48b3a9b548fce1ac9a75e37ba1668f5d3c5ddc189d578d4b55",
	"SOC2@1/core3(s13207)":           "71a966a15d1f813ef6e922e96de5f3f84c68894c4e44e297ba8feeadecdde733",
	"SOC2@1/core3(s13207)/wrapped":   "7e0c736474940573ca41df0874ba66e14565d5fe0e826769f4a56f275a418481",
	"SOC2@1/core4(s15850)":           "cd31a896a5d844569c64148ed0f3ea508669b8fec1854cb16bdf71c2974b0436",
	"SOC2@1/core4(s15850)/wrapped":   "663e9a92bc074680b49f3b984219d31cf50d3505c33ed88c968b5dfc650d6600",
	"SOC2@1/flat/seed1":              "5d34a71d6f934c07bdf328c9edb9cd09d9afce1589433f06507046e2b9438507",
	"SOC2@1/flat/seed2":              "1ee0f4438c1c9658beed016531894c4a180227db0e7f06127b22c06fba4a656c",
	"SOC2@1/flat/seed3":              "6d9a4fbe99ebbdd1e7d0fe49119e0ec275e9d35c13b229c52edd5fff6f2eee96",
	"standin/s13207":                 "72a2f993e1cecca26b5bb155d401f31eb7b9c2df953213c9fd052ef64b933804",
	"standin/s1423":                  "24f26a88016cc27678162b3d22ec6c9f47493730fff68fc97c765b809c28d200",
	"standin/s15850":                 "d505f2cd38d08bc8a8b25ff8eb3b0eb36bca062f9ebfc4435104a63a26f69639",
	"standin/s5378":                  "2322db9ed64151e20a40883f6fe3cf0931199b55d7f7aceaa360569029cf03b8",
	"standin/s713":                   "59d67e9d2c67448931c72f99fb85c011b4e625a5770d2725052198e9875b4e69",
	"standin/s953":                   "256b0e73bfd96206235d9000e526d5ba7720a3f34fd0b4cd36749e5b968b0b26",
}

// liveInstances returns the live experiment's core instances for one SOC,
// built exactly as liveSOC builds them: distinct seeds per instance and the
// gate budget scaled with an outputs+8 floor.
func liveInstances(t *testing.T, names []string, scale float64) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for i, n := range names {
		prof, ok := bench89.ProfileByName(n)
		if !ok {
			t.Fatalf("no profile %q", n)
		}
		prof.Seed += int64(i) * 1013
		prof.Gates = int(float64(prof.Gates) * scale)
		if min := prof.Outputs + 8; prof.Gates < min {
			prof.Gates = min
		}
		c, err := bench89.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// checkWrapperBits ties the structural wrapper to the paper's formulas: the
// bits AccountBits counts per pattern on the isolated core must equal
// 2S + I + O (Eq. 4's 2S_P plus Eq. 5's port term), the per-pattern factor
// core.Module.ModularTDV charges the core in the live experiment's model.
func checkWrapperBits(t *testing.T, key string, c *netlist.Circuit, w *wrapper.IsolationResult) {
	t.Helper()
	bits, err := wrapper.AccountBits(w)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	st := c.ComputeStats()
	p := core.Params{Inputs: st.Inputs, Outputs: st.Outputs, ScanCells: st.DFFs, Patterns: 1}
	want := 2*int64(st.DFFs) + core.Params{Inputs: st.Inputs, Outputs: st.Outputs}.PortBits()
	if got := bits.Total(); got != want {
		t.Errorf("%s: wrapper bits per pattern %d, want 2S+I+O = %d", key, got, want)
	}
	if got := (&core.Module{Params: p}).ModularTDV(); got != want {
		t.Errorf("%s: Eq. 4 charges %d bits per pattern, want 2S+I+O = %d", key, got, want)
	}
}

func TestBuiltNetlistsPinned(t *testing.T) {
	got := map[string]string{}
	digest := func(key, text string) {
		got[key] = fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
	}
	for _, p := range bench89.StandardProfiles() {
		digest("standin/"+p.Name, netlist.BenchString(bench89.MustGenerate(p)))
	}
	socs := []struct {
		name  string
		cores []string
	}{
		{"SOC1", []string{"s713", "s953", "s1423", "s1423", "s1423"}},
		{"SOC2", []string{"s953", "s5378", "s13207", "s15850"}},
	}
	for _, scale := range []float64{1, 0.4} {
		for _, s := range socs {
			cores := liveInstances(t, s.cores, scale)
			for i, c := range cores {
				key := fmt.Sprintf("%s@%g/core%d(%s)", s.name, scale, i+1, s.cores[i])
				digest(key, netlist.BenchString(c))
				w, err := wrapper.Isolate(c)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digest(key+"/wrapped", fmt.Sprintf("%s%v%v", netlist.BenchString(w.Wrapped), w.InputCells, w.OutputCells))
				checkWrapperBits(t, key, c, w)
			}
			for seed := int64(1); seed <= 3; seed++ {
				flat, err := Flatten(s.name+"-flat", cores, FlattenOptions{Seed: seed, InterconnectFraction: 0.45})
				if err != nil {
					t.Fatalf("%s seed %d: %v", s.name, seed, err)
				}
				digest(fmt.Sprintf("%s@%g/flat/seed%d", s.name, scale, seed), netlist.BenchString(flat))
			}
		}
	}
	for key, sum := range got {
		if want, ok := builtNetlistDigests[key]; !ok {
			t.Errorf("%q: no pinned digest (got %s)", key, sum)
		} else if sum != want {
			t.Errorf("%q: BenchString digest %s, want %s", key, sum, want)
		}
	}
	for key := range builtNetlistDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("%q: pinned digest but no circuit built", key)
		}
	}
}

// sameCircuit reports how the numbered build got differs from want, the
// circuit parsed from its own bench text, or "" when every gate has the
// same ID, name, type and fanin, and the ports are the same.
func sameCircuit(got, want *netlist.Circuit) string {
	if got.NumGates() != want.NumGates() {
		return fmt.Sprintf("%d gates, parsed %d", got.NumGates(), want.NumGates())
	}
	for id := 0; id < got.NumGates(); id++ {
		g, w := got.Gate(netlist.GateID(id)), want.Gate(netlist.GateID(id))
		if g.ID != w.ID || g.Name != w.Name || g.Type != w.Type || !slices.Equal(g.Fanin, w.Fanin) {
			return fmt.Sprintf("gate %d is %+v, parsed %+v", id, *g, *w)
		}
	}
	if !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Outputs(), want.Outputs()) ||
		!slices.Equal(got.DFFs(), want.DFFs()) {
		return "ports differ"
	}
	return ""
}

// TestNumberedBuildsMatchParsed holds every circuit built by number (the
// stand-ins at gate scale 1 and 0.4, and the SOC1 and SOC2 flattens at
// seeds 1 to 8) to the circuit the name path parses from its bench text:
// the same text, and the same gate IDs.
func TestNumberedBuildsMatchParsed(t *testing.T) {
	check := func(key string, c *netlist.Circuit) {
		text := netlist.BenchString(c)
		parsed, err := netlist.ParseBenchString(c.Name, text)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if netlist.BenchString(parsed) != text {
			t.Errorf("%s: bench text differs from its parse", key)
		}
		if diff := sameCircuit(c, parsed); diff != "" {
			t.Errorf("%s: %s", key, diff)
		}
	}
	for _, scale := range []float64{1, 0.4} {
		for _, p := range bench89.StandardProfiles() {
			p.Gates = max(int(float64(p.Gates)*scale), p.Outputs+8)
			check(fmt.Sprintf("%s@%g", p.Name, scale), bench89.MustGenerate(p))
		}
		for name, cores := range map[string][]string{
			"SOC1": {"s713", "s953", "s1423", "s1423", "s1423"},
			"SOC2": {"s953", "s5378", "s13207", "s15850"},
		} {
			insts := liveInstances(t, cores, scale)
			for seed := int64(1); seed <= 8; seed++ {
				flat, err := Flatten(name+"-flat", insts, FlattenOptions{Seed: seed, InterconnectFraction: 0.45})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s@%g/flat/seed%d", name, scale, seed), flat)
			}
		}
	}
}
