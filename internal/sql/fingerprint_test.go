package sql

import "testing"

func TestFingerprintNormalizes(t *testing.T) {
	groups := [][]string{
		{
			"SELECT a FROM t WHERE x = 1",
			"select  a\nfrom t  where x=1",
			"Select A From T Where X = 1",
		},
		{
			"SELECT COUNT(*) FROM t WHERE p = 1.50",
			"SELECT count( * ) FROM t WHERE p = 1.5",
			"SELECT COUNT(*) FROM t WHERE p = 15e-1",
		},
		{
			"SELECT a FROM t WHERE s = 'It''s'",
			"SELECT a FROM t WHERE s='It''s'",
		},
	}
	for gi, g := range groups {
		want, err := Fingerprint(g[0])
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		for _, q := range g[1:] {
			got, err := Fingerprint(q)
			if err != nil {
				t.Fatalf("group %d %q: %v", gi, q, err)
			}
			if got != want {
				t.Errorf("group %d: %q -> %q, want %q", gi, q, got, want)
			}
		}
	}
}

func TestFingerprintDistinguishesLiterals(t *testing.T) {
	pairs := [][2]string{
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"},
		{"SELECT a FROM t WHERE s = 'x'", "SELECT a FROM t WHERE s = 'y'"},
		{"SELECT a FROM t", "SELECT b FROM t"},
		// Case differs inside a string literal: semantically distinct.
		{"SELECT a FROM t WHERE s = 'abc'", "SELECT a FROM t WHERE s = 'ABC'"},
		// An integral FLOAT literal is not the INT of the same value.
		{"SELECT a / 2 FROM t", "SELECT a / 2.0 FROM t"},
		{"SELECT a / 1000000 FROM t", "SELECT a / 1e6 FROM t"},
	}
	for i, p := range pairs {
		a, err1 := Fingerprint(p[0])
		b, err2 := Fingerprint(p[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("pair %d: %v %v", i, err1, err2)
		}
		if a == b {
			t.Errorf("pair %d: %q and %q collide on %q", i, p[0], p[1], a)
		}
	}
}

// TestFingerprintRoundTrips: the fingerprint must itself lex and parse to
// the same normalized form (idempotence), so it is safe as a cache key
// for any lexable input.
func TestFingerprintRoundTrips(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM t, u WHERE t.k = u.k AND b BETWEEN 1 AND 10",
		"SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)",
		"SELECT a FROM t WHERE d >= DATE '1994-01-01' GROUP BY a HAVING COUNT(*) > 2",
		"SELECT x + -1, y * 2.5 FROM t WHERE s LIKE 'a%b' OR s IS NOT NULL",
		"SELECT 1.5e3, 2E-2, 1e21, 4.0, 1e6 FROM t",
	}
	for _, q := range queries {
		fp, err := Fingerprint(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		again, err := Fingerprint(fp)
		if err != nil {
			t.Fatalf("re-fingerprint %q: %v", fp, err)
		}
		if again != fp {
			t.Errorf("not idempotent: %q -> %q", fp, again)
		}
		if _, err := Parse(fp); err != nil {
			t.Errorf("fingerprint %q no longer parses: %v", fp, err)
		}
	}
}
