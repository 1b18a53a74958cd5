package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"gpufpx/pkg/gpufpx"
)

// oracleJSON holds the expected results every operation is checked against.
// It is produced by --regen-oracle with the interp executor, never by the
// fused tier the benchmark times.
//
//go:embed oracle.json
var oracleJSON []byte

// Oracle is the expected-results file.
type Oracle struct {
	// Exec names the executor that produced the entries.
	Exec string `json:"exec"`
	// Runs maps "program/tool" to the run's simulated cycles and report
	// digest.
	Runs map[string]RunEntry `json:"runs"`
	// Campaigns maps "program/tool/seed" to the profile-report digest.
	Campaigns map[string]string `json:"campaigns"`
}

// RunEntry is one (program, tool) run's expected outcome.
type RunEntry struct {
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"`
}

func loadOracle() (*Oracle, error) {
	var o Oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	if len(o.Runs) == 0 || len(o.Campaigns) == 0 {
		return nil, fmt.Errorf("oracle.json is empty; regenerate it with --regen-oracle")
	}
	return &o, nil
}

func runKey(prog, tool string) string { return prog + "/" + tool }

func campaignKey(prog, tool string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", prog, tool, seed)
}

// CheckRun compares one run's cycles and report digest with the oracle.
func (o *Oracle) CheckRun(prog, tool string, cycles uint64, digest string) error {
	want, ok := o.Runs[runKey(prog, tool)]
	switch {
	case !ok:
		return fmt.Errorf("%s/%s: no oracle entry", prog, tool)
	case want.Cycles != cycles:
		return fmt.Errorf("%s/%s: %d cycles, oracle says %d", prog, tool, cycles, want.Cycles)
	case want.Digest != digest:
		return fmt.Errorf("%s/%s: report digest %s, oracle says %s", prog, tool, digest, want.Digest)
	}
	return nil
}

// CheckCampaign compares one profile's digest with the oracle.
func (o *Oracle) CheckCampaign(prog, tool string, seed uint64, rep *gpufpx.ProfileReport) error {
	digest, err := profileDigest(rep)
	if err != nil {
		return err
	}
	want, ok := o.Campaigns[campaignKey(prog, tool, seed)]
	switch {
	case !ok:
		return fmt.Errorf("%s/%s seed %d: no oracle entry", prog, tool, seed)
	case want != digest:
		return fmt.Errorf("%s/%s seed %d: profile digest %s, oracle says %s", prog, tool, seed, digest, want)
	}
	return nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// fingerprint renders what a run's digest covers: the canonical JSON
// report, or for tools without one (plain) the cycle and launch counts.
func fingerprint(rep *gpufpx.Report) ([]byte, error) {
	if rep.Detector == nil && rep.Analyzer == nil && rep.Shadow == nil {
		return []byte(fmt.Sprintf("%s cycles=%d launches=%d", rep.Tool, rep.Cycles, rep.Launches)), nil
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkReport checks a facade report against the oracle.
func (o *Oracle) checkReport(prog, tool string, rep *gpufpx.Report) error {
	fp, err := fingerprint(rep)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", prog, tool, err)
	}
	return o.CheckRun(prog, tool, rep.Cycles, digestBytes(fp))
}

// profileDigest digests a profile in its canonical encoding.
func profileDigest(rep *gpufpx.ProfileReport) (string, error) {
	var buf bytes.Buffer
	if err := gpufpx.EncodeProfileReport(&buf, rep); err != nil {
		return "", err
	}
	return digestBytes(buf.Bytes()), nil
}

// regenOracle runs every (program, tool) pair and every campaign plan of
// the workloads with the interp executor and writes the oracle to path.
//
// It switches the process default executor rather than pinning sessions
// with WithExec: a campaign's trial plan is keyed by the session's exec
// setting, so only sessions configured exactly like the workload's (exec
// left unset) plan the same strikes.
func regenOracle(ctx context.Context, path string, log io.Writer) error {
	gpufpx.SetDefaultExecMode(gpufpx.ExecInterp)
	o := Oracle{Exec: "interp", Runs: map[string]RunEntry{}, Campaigns: map[string]string{}}
	progs := programNames()
	for _, c := range campaignSpecs {
		if !slices.Contains(progs, c.prog) {
			progs = append(progs, c.prog)
		}
	}
	for _, tool := range toolNames {
		s := gpufpx.New(gpufpx.WithTool(mustTool(tool)))
		for _, prog := range progs {
			rep, err := s.Run(ctx, gpufpx.Program(prog))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", prog, tool, err)
			}
			fp, err := fingerprint(rep)
			if err != nil {
				return err
			}
			o.Runs[runKey(prog, tool)] = RunEntry{Cycles: rep.Cycles, Digest: digestBytes(fp)}
		}
		fmt.Fprintf(log, "oracle: %s runs done\n", tool)
	}
	for seed := uint64(1); seed <= campaignSeeds; seed++ {
		for _, c := range campaignSpecs {
			for _, tool := range campaignTools {
				rep, err := campaignSession(tool, c, seed, "").Profile(ctx, gpufpx.Program(c.prog))
				if err != nil {
					return fmt.Errorf("campaign %s/%s: %w", c.prog, tool, err)
				}
				d, err := profileDigest(rep)
				if err != nil {
					return err
				}
				o.Campaigns[campaignKey(c.prog, tool, seed)] = d
			}
		}
		fmt.Fprintf(log, "oracle: campaign seed %d done\n", seed)
	}
	b, err := marshalOracle(&o)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// marshalOracle encodes the oracle with sorted keys, one entry per line.
func marshalOracle(o *Oracle) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"exec\": %q,\n  \"runs\": {\n", o.Exec)
	keys := make([]string, 0, len(o.Runs))
	for k := range o.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		e, err := json.Marshal(o.Runs[k])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "    %q: %s%s\n", k, e, comma(i, len(keys)))
	}
	buf.WriteString("  },\n  \"campaigns\": {\n")
	keys = keys[:0]
	for k := range o.Campaigns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		fmt.Fprintf(&buf, "    %q: %q%s\n", k, o.Campaigns[k], comma(i, len(keys)))
	}
	buf.WriteString("  }\n}\n")
	return buf.Bytes(), nil
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
