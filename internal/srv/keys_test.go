package srv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coopt"
	"repro/internal/core"
	"repro/internal/store"
)

// keySOC is a small inline .soc profile for the tdv and lint key pins.
const keySOC = `soc keyed
tmono 0
module Top(top) i 8 o 6 b 0 s 0 t 4 children A,B
module A i 5 o 3 b 1 s 120 t 40
module B i 2 o 2 b 0 s 64 t 25
top Top(top)
`

// TestWorkKeysPinned pins the content address of one request per served
// kind. A store filled by an earlier daemon must keep hitting, so a
// change to any expected key orphans every cached artifact of that kind.
// Journal replay must rebuild the same address from the canonical
// request JSON.
func TestWorkKeysPinned(t *testing.T) {
	tmono := 300
	s, _ := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		kind string
		req  any
		want string
	}{
		{"atpg standin", "atpg", &atpgRequest{Standin: "s713"},
			"f6ffc4ca377a7cf9b4b999f8026872d81184719fe085b99b969425746197de25"},
		{"atpg inline", "atpg", &atpgRequest{Bench: tinyBench},
			"c66baff15440f22c595f5749503c72443d692483dd212ddf8c2fa88adb88f360"},
		{"tdv builtin", "tdv", &tdvRequest{Builtin: "d695"},
			"3f7dfbaf7f8692c4dba21d927e8e7588eec8157f13e5112dc28d517b400ca0ac"},
		{"tdv inline tmono", "tdv", &tdvRequest{SOC: keySOC, TMono: &tmono},
			"8e5be3ed8cdb452e49e926fa3e4bdb3fec7909853ce983443cdf4a8d6976531a"},
		{"lint bench", "lint", &lintRequest{Bench: tinyBench},
			"f71dcbddc2e3338e0f6fad6b892e44c9e4596ae2b48178fcb6ad5bb2c9478d11"},
		{"lint soc", "lint", &lintRequest{SOC: keySOC},
			"399555a06b0973f65ed26e77345a6a3eddd36741dd4ed757be204f82fb504b76"},
		// Keyed "v2|"+OptionsHash: see scheduleWork.
		{"schedule d695", "schedule", &scheduleRequest{
			Builtin: "d695", TAM: 32, PowerBudget: 5000,
			Precedence: [][2]string{{"d695-core5", "d695-core1"}, {"d695-core2", "d695-core9"}},
		}, "051e9fdf63b2dbf3cf72aa088b345b35a0ec9624f2d6394f022076b15bb43197"},
	} {
		var built []work
		for _, k := range kinds {
			if k.name == tc.kind {
				wk, _, err := k.build(s, tc.req)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				built = append(built, wk)
			}
		}
		if len(built) != 1 {
			t.Fatalf("%s: %d table entries for kind %q, want 1", tc.name, len(built), tc.kind)
		}
		wk := built[0]
		if wk.kind != tc.kind || wk.key != tc.want {
			t.Errorf("%s: %s key %q, want %s key %q", tc.name, wk.kind, wk.key, tc.kind, tc.want)
		}
		replayed, err := replayWork(s, tc.kind, marshalReq(tc.req))
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		if replayed.key != wk.key {
			t.Errorf("%s: replayed key %q, built key %q", tc.name, replayed.key, wk.key)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to every served kind's decoder and work
// builder. Nothing may panic, and every request that builds must survive
// journal replay: replayWork on the recorded request JSON yields the same
// content address and the same request JSON.
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	s, _ := newTestServer(f, Config{Workers: 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			req := k.newReq()
			if json.Unmarshal(data, req) != nil {
				continue
			}
			wk, _, err := k.build(s, req)
			if err != nil {
				continue
			}
			replayed, err := replayWork(s, k.name, wk.reqJSON)
			if err != nil {
				t.Fatalf("%s: replay of %s: %v", k.name, wk.reqJSON, err)
			}
			if replayed.key != wk.key || !bytes.Equal(replayed.reqJSON, wk.reqJSON) {
				t.Fatalf("%s: replay drifted: key %s -> %s, request %s -> %s",
					k.name, wk.key, replayed.key, wk.reqJSON, replayed.reqJSON)
			}
		}
	})
}

// decodeSeeds is FuzzDecode's corpus: every invalid request, among them
// the two Eq. 2 probes, and one valid request per served kind.
func decodeSeeds() [][]byte {
	var seeds [][]byte
	for _, tc := range invalidRequests {
		seeds = append(seeds, []byte(tc.body))
	}
	tmono := 300
	seed := int64(7)
	random := 0
	for _, req := range []any{
		&atpgRequest{Standin: "s713", Options: &atpgOptions{Random: &random, Seed: &seed}},
		&tdvRequest{SOC: keySOC, TMono: &tmono},
		&lintRequest{Bench: tinyBench},
		&scheduleRequest{Builtin: "d695", TAM: 32, PowerBudget: 5000,
			Precedence: [][2]string{{"d695-core5", "d695-core1"}}},
	} {
		seeds = append(seeds, marshalReq(req))
	}
	return seeds
}

// FuzzServe posts arbitrary bodies through the in-process handler to
// /v1/tdv, /v1/lint and /v1/schedule, and to /v1/atpg with the fuzzed
// envelope and options over the fixed tinyBench netlist, so every run
// stays small. No request may answer 500, and a 200 must come back byte
// for byte when the same body is posted again. A 200 from /v1/tdv or
// /v1/schedule must hold its numbers: no volume, penalty, benefit or bit
// count is negative, and the tdv report balances Eq. 6 with the chip-port
// term. The corpus adds the request mix of cmd/socload and the overflow
// probes of internal/core to decodeSeeds.
func FuzzServe(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	for _, body := range []string{
		`{"builtin":"d695"}`, `{"builtin":"g1023"}`, `{"builtin":"p22810"}`, `{"builtin":"p93791"}`,
		`{"builtin":"d695","tam":32}`, `{"builtin":"g1023","tam":24}`, `{"standin":"s713"}`,
		`{"bench":"INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nns = NOT(s)\nta = AND(a, ns)\ntb = AND(b, s)\ny = OR(ta, tb)\n"}`,
	} {
		f.Add([]byte(body))
	}
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "overflow", "*.soc"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no overflow seeds: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(marshalReq(&tdvRequest{SOC: string(src)}))
		f.Add(marshalReq(&scheduleRequest{SOC: string(src), TAM: 8}))
	}
	st, err := store.Open(f.TempDir(), 1<<20, nil)
	if err != nil {
		f.Fatal(err)
	}
	s, _ := newTestServer(f, Config{Workers: 1, Store: st})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies := map[string][]byte{"/v1/tdv": data, "/v1/lint": data, "/v1/schedule": data}
		var req atpgRequest
		if json.Unmarshal(data, &req) == nil {
			req.Bench, req.Standin = tinyBench, ""
			bodies["/v1/atpg"] = marshalReq(&req)
		}
		for path, body := range bodies {
			first := post(t, h, path, string(body))
			if first.Code == http.StatusInternalServerError {
				t.Fatalf("POST %s %q = 500 %s", path, body, first.Body)
			}
			if first.Code != http.StatusOK {
				continue
			}
			if again := post(t, h, path, string(body)); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("POST %s %q: 200 %q, then %d %q", path, body, first.Body, again.Code, again.Body)
			}
			if err := checkAnswer(path, first.Body.Bytes()); err != nil {
				t.Fatalf("POST %s %q: %v in %s", path, body, err, first.Body)
			}
		}
	})
}

// checkAnswer holds a 200 body of /v1/tdv or /v1/schedule to its numbers:
// every volume, penalty, benefit and bit count is non-negative, and a tdv
// report balances the exact Eq. 6 identity at its reference T_mono,
//
//	TDV_modular = TDV_mono + TDV_penalty − TDV_benefit − chip-port term.
func checkAnswer(path string, body []byte) error {
	switch path {
	case "/v1/tdv":
		var r core.Report
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		mono := r.TDVMonoOpt
		if r.TMono > 0 {
			mono = r.TDVMonoAct
		}
		for _, v := range []int64{r.SumScan, r.TDVMonoOpt, r.TDVMonoAct, r.TDVModular, r.Penalty, r.Benefit, r.ChipPort} {
			if v < 0 {
				return fmt.Errorf("negative volume %d", v)
			}
		}
		if r.TDVModular != mono+r.Penalty-r.Benefit-r.ChipPort {
			return fmt.Errorf("Eq. 6: TDV_modular %d, but %d + %d − %d − %d", r.TDVModular, mono, r.Penalty, r.Benefit, r.ChipPort)
		}
	case "/v1/schedule":
		var sch coopt.Schedule
		if err := json.Unmarshal(body, &sch); err != nil {
			return err
		}
		counts := []int64{sch.TotalTime, sch.LowerBound, sch.TDVBits, sch.UsefulBits, sch.WrapperIdleBits, sch.TAMIdleBits}
		for _, p := range sch.Placements {
			counts = append(counts, p.Start, p.Finish-p.Start, p.Power, p.IdleBits)
		}
		for _, v := range counts {
			if v < 0 {
				return fmt.Errorf("negative count %d", v)
			}
		}
	}
	return nil
}
