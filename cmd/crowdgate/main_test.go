package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("writing config: %v", err)
	}
	return path
}

func TestLoadConfig(t *testing.T) {
	path := writeConfig(t, `{"tenants": [
		{"name": "acme", "token": "s3cret", "workers": 16, "shards": 4,
		 "rate_per_sec": 200, "burst": 50, "min_responses": 10},
		{"name": "beta", "token_env": "BETA_TOKEN", "workers": 8,
		 "cluster": "a:7333,b:7333;c:7333", "wal": "/var/lib/crowdgate/beta"}
	]}`)
	cfg, err := loadConfig(path)
	if err != nil {
		t.Fatalf("loadConfig: %v", err)
	}
	if len(cfg.Tenants) != 2 {
		t.Fatalf("%d tenants, want 2", len(cfg.Tenants))
	}
	a := cfg.Tenants[0]
	if a.Name != "acme" || a.Token != "s3cret" || a.Workers != 16 || a.Shards != 4 ||
		a.RatePerSec != 200 || a.Burst != 50 || a.MinResponses != 10 {
		t.Errorf("tenant 0 = %+v", a)
	}
	b := cfg.Tenants[1]
	if b.TokenEnv != "BETA_TOKEN" || b.Cluster != "a:7333,b:7333;c:7333" || b.WAL != "/var/lib/crowdgate/beta" {
		t.Errorf("tenant 1 = %+v", b)
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"tenants": [{"name": "a", "token": "t", "wrokers": 4}]}`)
	if _, err := loadConfig(path); err == nil || !strings.Contains(err.Error(), "wrokers") {
		t.Fatalf("err = %v, want unknown-field rejection naming the typo", err)
	}
}

func TestLoadConfigRejectsEmptyTenantList(t *testing.T) {
	path := writeConfig(t, `{"tenants": []}`)
	if _, err := loadConfig(path); err == nil || !strings.Contains(err.Error(), "no tenants") {
		t.Fatalf("err = %v, want no-tenants error", err)
	}
}

func TestResolveToken(t *testing.T) {
	if tok, err := resolveToken(tenantSpec{Name: "a", Token: "literal"}); err != nil || tok != "literal" {
		t.Errorf("literal token: %q, %v", tok, err)
	}

	t.Setenv("CROWDGATE_TEST_TOKEN", "from-env")
	// token_env wins over a literal token when both are set.
	spec := tenantSpec{Name: "a", Token: "literal", TokenEnv: "CROWDGATE_TEST_TOKEN"}
	if tok, err := resolveToken(spec); err != nil || tok != "from-env" {
		t.Errorf("env token: %q, %v", tok, err)
	}

	// An empty environment variable is a configuration error, not an
	// empty (universally-matching-nothing but silently weak) token.
	t.Setenv("CROWDGATE_TEST_TOKEN", "")
	if _, err := resolveToken(spec); err == nil || !strings.Contains(err.Error(), "CROWDGATE_TEST_TOKEN") {
		t.Errorf("empty env: err = %v, want error naming the variable", err)
	}

	if _, err := resolveToken(tenantSpec{Name: "a"}); err == nil {
		t.Error("no token at all: want error")
	}
}

func TestParseGroups(t *testing.T) {
	// Whitespace around addresses is ignored.
	groups, err := parseGroups(" a:1 ,b:2; c:3 ")
	if err != nil {
		t.Fatalf("parseGroups: %v", err)
	}
	want := [][]string{{"a:1", "b:2"}, {"c:3"}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}

	// The empty spec is the no-groups case.
	for _, bad := range []string{"", "a:1;;b:2", "a:1,,b:2", "a:1,;b:2", " ; "} {
		if _, err := parseGroups(bad); err == nil {
			t.Errorf("parseGroups(%q): want error", bad)
		}
	}
}

func TestBuildTenantValidation(t *testing.T) {
	if _, _, err := buildTenant(tenantSpec{Token: "t", Workers: 4}, nil); err == nil {
		t.Error("empty name: want error")
	}
	if _, _, err := buildTenant(tenantSpec{Name: "a", Token: "t"}, nil); err == nil {
		t.Error("zero workers: want error")
	}
	if _, _, err := buildTenant(tenantSpec{Name: "a", Token: "t", Workers: 4, Cluster: ";"}, nil); err == nil {
		t.Error("malformed cluster spec: want error")
	}
	if _, _, err := buildTenant(tenantSpec{Name: "a", Token: "t", Workers: 4, WAL: t.TempDir()}, nil); err == nil ||
		!strings.Contains(err.Error(), "wal requires cluster") {
		t.Errorf("wal without cluster: err = %v, want a config error", err)
	}

	// A local tenant builds without touching the network and has no head;
	// min_responses flows into the pool policy.
	tc, head, err := buildTenant(tenantSpec{Name: "a", Token: "t", Workers: 4, MinResponses: 7}, nil)
	if err != nil {
		t.Fatalf("local tenant: %v", err)
	}
	if head != nil {
		t.Error("local tenant returned a cluster head")
	}
	if tc.Policy == nil || tc.Policy.MinResponses != 7 {
		t.Errorf("policy = %+v, want MinResponses 7", tc.Policy)
	}
	if tc.Manager != nil {
		t.Error("local tenant should leave Manager nil (the gateway builds it)")
	}
}
