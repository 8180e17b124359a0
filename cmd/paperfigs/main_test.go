package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	exps := experimentList()
	got, err := selectExperiments(exps, " meshdbl,FIG5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "FIG5" || got[1].id != "MESHDBL" {
		t.Errorf("selected %v, want FIG5 then MESHDBL (list order)", got)
	}
	if all, err := selectExperiments(exps, ""); err != nil || len(all) != len(exps) {
		t.Errorf("empty -only selected %d of %d (err %v)", len(all), len(exps), err)
	}
	// A retired id must fail loudly and name what exists.
	_, err = selectExperiments(exps, "FIG5,HYBRID")
	if err == nil || !strings.Contains(err.Error(), `"HYBRID"`) || !strings.Contains(err.Error(), "FIG5") {
		t.Errorf("unknown id: err %v, want one naming HYBRID and the known ids", err)
	}
}
