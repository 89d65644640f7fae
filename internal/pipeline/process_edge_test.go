package pipeline_test

import (
	"strings"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/pipeline"
)

// emptyDataset returns a structurally valid volunteer upload with zero
// pages: the volunteer installed the tool and submitted before visiting
// any site.
func emptyDataset(cc, city string) *core.Dataset {
	return &core.Dataset{
		SchemaVersion: 1,
		VolunteerID:   "edge-" + cc,
		Country:       cc,
		City:          city,
	}
}

func TestProcessEdgeCases(t *testing.T) {
	f := setup(t)
	cases := []struct {
		name     string
		datasets func() []*core.Dataset
		wantErr  string // substring; empty means success
		check    func(t *testing.T, res *pipeline.Result)
	}{
		{
			name:     "empty dataset list",
			datasets: func() []*core.Dataset { return nil },
			check: func(t *testing.T, res *pipeline.Result) {
				if len(res.Countries) != 0 {
					t.Errorf("countries = %v, want none", res.CountryCodes())
				}
				if res.Funnel.DomainObservations != 0 {
					t.Errorf("funnel not empty: %+v", res.Funnel)
				}
			},
		},
		{
			name: "zero-page dataset",
			datasets: func() []*core.Dataset {
				return []*core.Dataset{emptyDataset("PK", "Karachi, PK")}
			},
			check: func(t *testing.T, res *pipeline.Result) {
				cr := res.Countries["PK"]
				if cr == nil {
					t.Fatal("PK missing from result")
				}
				if cr.Targets != 0 || len(cr.Verdicts) != 0 {
					t.Errorf("zero-page dataset produced targets=%d verdicts=%d", cr.Targets, len(cr.Verdicts))
				}
				// No pages means no failed traceroutes, so no Atlas
				// substitution may be triggered.
				if cr.TraceOrigin != "volunteer" {
					t.Errorf("trace origin = %q, want volunteer", cr.TraceOrigin)
				}
			},
		},
		{
			name: "duplicate country codes",
			datasets: func() []*core.Dataset {
				return []*core.Dataset{
					emptyDataset("PK", "Karachi, PK"),
					emptyDataset("PK", "Lahore, PK"),
				}
			},
			wantErr: "duplicate country PK",
		},
		{
			name: "city in another country",
			datasets: func() []*core.Dataset {
				return []*core.Dataset{emptyDataset("EG", "Karachi, PK")}
			},
			wantErr: `volunteer city "Karachi, PK" is not in country EG`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := pipeline.Process(gamma.PipelineEnv(f.world), tc.datasets())
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}
