// Command tcbcount reproduces the paper's §VII-A TCB-size analysis
// (experiment E8). The paper reports 5785 LOC total for the Sanctum SM
// (C: 5264, asm: 521), of which most is cryptography, C library
// routines and boot plumbing, leaving 1011 LOC of non-platform-specific
// monitor logic. This tool applies the same decomposition to this
// repository: the trusted monitor core is a small fraction of the tree,
// with crypto a comparable fraction of the *trusted* code — the shape
// the paper's argument rests on.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type category struct {
	name    string
	trusted bool
	desc    string
	match   func(path string) bool
}

func prefix(p string) func(string) bool {
	return func(path string) bool { return strings.HasPrefix(path, p) }
}

var categories = []category{
	// Listed before "monitor core" because they live in internal/sm/ for
	// unexported-field access but are verification scaffolding, not part
	// of the shipped SM image: the invariant checker is only invoked by
	// tests and the model checker, and the fault hook is nil outside
	// fault-injection runs. A production build would drop both files.
	{"verification & clients", false, "model checker, invariant suite, fault hooks, retry-aware client", func(p string) bool {
		return strings.HasPrefix(p, "internal/mc/") || strings.HasPrefix(p, "internal/smcall/") ||
			p == "internal/sm/invariant.go" || p == "internal/sm/fault.go"
	}},
	{"monitor core", true, "lifecycles, measurement, mailboxes, traps (≈ paper's 1011 LOC core)", prefix("internal/sm/")},
	{"crypto (trusted)", true, "sha3, kdf, certificates (≈ paper's bundled tiny_sha3 etc.)", prefix("internal/crypto/")},
	{"platform adapters", true, "Sanctum / Keystone / baseline backends", prefix("internal/platform/")},
	{"hardware simulator", false, "substitute for silicon: memory, caches, MMU, cores", func(p string) bool {
		return strings.HasPrefix(p, "internal/hw/") || strings.HasPrefix(p, "internal/isa/") || strings.HasPrefix(p, "internal/asm/")
	}},
	{"untrusted OS model", false, "resource manager outside the TCB", prefix("internal/os/")},
	{"verifier (remote party)", false, "attestation verification, key agreement", prefix("internal/attest/")},
	{"enclave programs", false, "SRV64 workloads", prefix("internal/enclaves/")},
	{"adversaries", false, "prime+probe attacker, malicious-OS battery", prefix("internal/adversary/")},
	{"fleet infrastructure", false, "multi-machine sharding, session routing, attested channels", prefix("internal/fleet/")},
	// The telemetry plane is observation, not policy, and the TCB does
	// not touch it: the monitor's instruments are recorded from
	// outside, by the tap at its call and trap seams
	// (internal/telemetry/smtap, counted here), and nothing under
	// internal/sm imports the plane (a CI step checks).
	{"telemetry (untrusted)", false, "metrics registry, histograms, request tracing", prefix("internal/telemetry/")},
	{"facade/examples/tools", false, "public API, examples, commands", func(p string) bool {
		return strings.HasPrefix(p, "examples/") || strings.HasPrefix(p, "cmd/") || !strings.Contains(p, "/")
	}},
}

func countLines(path string) (code int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		code++
	}
	return code, sc.Err()
}

func main() {
	maxCore := flag.Int("max-core", 0,
		"fail (exit 1) if the trusted monitor core exceeds this many non-test LOC; 0 disables")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	totals := map[string]int{}
	testTotals := map[string]int{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		n, err := countLines(path)
		if err != nil {
			return err
		}
		for _, c := range categories {
			if c.match(rel) {
				if strings.HasSuffix(rel, "_test.go") {
					testTotals[c.name] += n
				} else {
					totals[c.name] += n
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcbcount:", err)
		os.Exit(1)
	}

	fmt.Println("TCB decomposition (non-test Go LOC), cf. paper §VII-A:")
	fmt.Println()
	fmt.Printf("  %-26s %8s %8s  %s\n", "category", "code", "tests", "role")
	var trusted, total, testTotal int
	names := make([]string, 0, len(categories))
	for _, c := range categories {
		names = append(names, c.name)
	}
	sort.SliceStable(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
	for _, name := range names {
		var c category
		for _, cc := range categories {
			if cc.name == name {
				c = cc
			}
		}
		mark := " "
		if c.trusted {
			mark = "*"
			trusted += totals[name]
		}
		total += totals[name]
		testTotal += testTotals[name]
		fmt.Printf("%s %-26s %8d %8d  %s\n", mark, name, totals[name], testTotals[name], c.desc)
	}
	fmt.Println()
	fmt.Printf("  trusted (*) LOC:   %6d  (paper: 5785 total SM image)\n", trusted)
	smCore := totals["monitor core"]
	fmt.Printf("  monitor-core LOC:  %6d  (paper: 1011 non-platform-specific)\n", smCore)
	fmt.Printf("  total (non-test):  %6d   tests: %d\n", total, testTotal)
	fmt.Printf("  core/trusted ratio: %.0f%%  (paper: %.0f%%)\n",
		100*float64(smCore)/float64(trusted), 100*1011.0/5785.0)
	if *maxCore > 0 {
		if smCore > *maxCore {
			fmt.Fprintf(os.Stderr,
				"tcbcount: trusted monitor core is %d LOC, over the declared %d LOC budget\n",
				smCore, *maxCore)
			os.Exit(1)
		}
		fmt.Printf("  core budget:       %6d  (%d LOC headroom)\n", *maxCore, *maxCore-smCore)
	}
}
