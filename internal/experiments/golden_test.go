package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/economy"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestGridGolden pins every field of every sim.Report of the §VII grid —
// all four schemes at all four intervals — for three seeds under both
// providers (the selfish grids spread the stream over eight tenants so
// the per-tenant sections are pinned too). The engine's data layout is
// free to change underneath; a single decision that moves shows up here
// as a one-line diff naming the cell. Goldens are one JSON object per
// line, one line per cell, in grid order.
func TestGridGolden(t *testing.T) {
	for _, provider := range []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("grid_%s_seed%d", provider, seed)
			t.Run(name, func(t *testing.T) {
				s := Settings{Queries: 2000, Seed: seed}
				if provider == economy.ProviderSelfish {
					s.Params.Provider = provider
					s.Tenants = 8
				}
				cells, err := RunGrid(s)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				for _, c := range cells {
					line, err := json.Marshal(c)
					if err != nil {
						t.Fatal(err)
					}
					got.Write(line)
					got.WriteByte('\n')
				}

				golden := filepath.Join("testdata", name+".golden.jsonl")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				gotLines := bytes.Split(got.Bytes(), []byte{'\n'})
				wantLines := bytes.Split(want, []byte{'\n'})
				if len(gotLines) != len(wantLines) {
					t.Fatalf("%s: %d lines, golden has %d", golden, len(gotLines), len(wantLines))
				}
				for i := range gotLines {
					if !bytes.Equal(gotLines[i], wantLines[i]) {
						t.Errorf("%s cell %d diverged:\ngot  %s\nwant %s", golden, i, gotLines[i], wantLines[i])
					}
				}
			})
		}
	}
}
