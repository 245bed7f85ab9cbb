package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestTokenize(t *testing.T) {
	toks, err := Tokenize("SELECT id, dist FROM t WHERE x >= 1.5e-2 -- comment\nLIMIT 10;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	if toks[0].Text != "SELECT" || toks[len(toks)-1].Text != ";" {
		t.Fatalf("tokens: %+v", toks)
	}
	// >= lexes as one op.
	found := false
	for _, tk := range toks {
		if tk.Kind == TokOp && tk.Text == ">=" {
			found = true
		}
	}
	if !found {
		t.Fatal(">= not lexed as one token")
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	toks, err := Tokenize("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Text != "it's" {
		t.Fatalf("toks = %+v", toks)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := Tokenize("a ! b"); err == nil {
		t.Fatal("lone ! should fail")
	}
}

func TestParseCreateTablePaperExample(t *testing.T) {
	src := `
CREATE TABLE images (
  id UInt64,
  label String,
  published_time DateTime,
  embedding Array(Float32),
  INDEX ann_idx embedding TYPE HNSW('DIM=960')
)
ORDER BY published_time
PARTITION BY (toYYYYMMDD(published_time), label)
CLUSTER BY embedding INTO 512 BUCKETS;`
	ct := mustParse(t, src).(*CreateTable)
	if ct.Name != "images" || len(ct.Columns) != 4 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Columns[3].TypeName != "Array(Float32)" {
		t.Fatalf("vector type = %q", ct.Columns[3].TypeName)
	}
	if len(ct.Indexes) != 1 || ct.Indexes[0].Kind != "HNSW" || ct.Indexes[0].Params[0] != "DIM=960" {
		t.Fatalf("index = %+v", ct.Indexes)
	}
	if ct.OrderBy != "published_time" {
		t.Fatalf("order by = %q", ct.OrderBy)
	}
	if len(ct.PartitionBy) != 2 || ct.PartitionBy[0] != "published_time" || ct.PartitionBy[1] != "label" {
		t.Fatalf("partition by = %v", ct.PartitionBy)
	}
	if ct.ClusterBy != "embedding" || ct.ClusterBuckets != 512 {
		t.Fatalf("cluster = %q / %d", ct.ClusterBy, ct.ClusterBuckets)
	}
}

func TestParseCreateMultipleIndexParams(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE t (v Array(Float32), INDEX i v TYPE IVFPQFS('DIM=128','NLIST=64','PQ_M=16'))`).(*CreateTable)
	if len(ct.Indexes[0].Params) != 3 {
		t.Fatalf("params = %v", ct.Indexes[0].Params)
	}
}

func TestParseDrop(t *testing.T) {
	d := mustParse(t, "DROP TABLE images").(*DropTable)
	if d.Name != "images" {
		t.Fatalf("drop = %+v", d)
	}
}

func TestParseInsertValues(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t VALUES (1, 'cat', 0.5, [1.0, 2.0, 3.0]), (2, 'dog''s', -7, [0.1, 0.2, 0.3])`).(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	r0 := ins.Rows[0]
	if r0[0].(int64) != 1 || r0[1].(string) != "cat" || r0[2].(float64) != 0.5 {
		t.Fatalf("row0 = %+v", r0)
	}
	v := r0[3].([]float32)
	if len(v) != 3 || v[2] != 3 {
		t.Fatalf("vector = %v", v)
	}
	if ins.Rows[1][1].(string) != "dog's" || ins.Rows[1][2].(int64) != -7 {
		t.Fatalf("row1 = %+v", ins.Rows[1])
	}
}

func TestParseInsertInfile(t *testing.T) {
	ins := mustParse(t, `INSERT INTO images CSV INFILE 'img_data.csv'`).(*Insert)
	if ins.Infile != "img_data.csv" || len(ins.Rows) != 0 {
		t.Fatalf("ins = %+v", ins)
	}
}

func TestParseSelectHybridPaperExample(t *testing.T) {
	src := `
SELECT id, dist, published_time FROM images
WHERE label = 'animal'
AND published_time >= 1728554400
ORDER BY L2Distance(embedding, [0.1, 0.2]) AS dist
LIMIT 100;`
	sel := mustParse(t, src).(*Select)
	if sel.Table != "images" || len(sel.Columns) != 3 {
		t.Fatalf("sel = %+v", sel)
	}
	if len(sel.Where) != 2 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[0].Column != "label" || sel.Where[0].Op != OpEq || sel.Where[0].Value.(string) != "animal" {
		t.Fatalf("pred0 = %+v", sel.Where[0])
	}
	if sel.Where[1].Op != OpGe {
		t.Fatalf("pred1 = %+v", sel.Where[1])
	}
	if sel.OrderBy == nil || sel.OrderBy.Distance == nil {
		t.Fatal("missing distance order by")
	}
	de := sel.OrderBy.Distance
	if de.Column != "embedding" || len(de.Query) != 2 || de.Query[1] != 0.2 {
		t.Fatalf("distance = %+v", de)
	}
	if sel.OrderBy.Alias != "dist" || sel.Limit != 100 {
		t.Fatalf("alias/limit = %q/%d", sel.OrderBy.Alias, sel.Limit)
	}
}

func TestParseSelectStarAndSettings(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM t ORDER BY CosineDistance(v, [1]) LIMIT 5 SETTINGS ef_search=200, nprobe=16`).(*Select)
	if !sel.Columns[0].Star {
		t.Fatal("star not parsed")
	}
	if sel.Settings["ef_search"] != 200 || sel.Settings["nprobe"] != 16 {
		t.Fatalf("settings = %v", sel.Settings)
	}
}

func TestParseSelectBetweenInRegexp(t *testing.T) {
	sel := mustParse(t, `SELECT id FROM t WHERE x BETWEEN 1 AND 10 AND y IN (1, 2, 3) AND caption REGEXP '^[0-9]' AND name LIKE 'cat'`).(*Select)
	if len(sel.Where) != 4 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[0].Op != OpBetween || sel.Where[0].Value.(int64) != 1 || sel.Where[0].Value2.(int64) != 10 {
		t.Fatalf("between = %+v", sel.Where[0])
	}
	if sel.Where[1].Op != OpIn || len(sel.Where[1].Values) != 3 {
		t.Fatalf("in = %+v", sel.Where[1])
	}
	if sel.Where[2].Op != OpRegexp || sel.Where[2].Value.(string) != "^[0-9]" {
		t.Fatalf("regexp = %+v", sel.Where[2])
	}
	if sel.Where[3].Op != OpLike {
		t.Fatalf("like = %+v", sel.Where[3])
	}
}

func TestParseDistanceRangePredicate(t *testing.T) {
	sel := mustParse(t, `SELECT id FROM t WHERE L2Distance(v, [1, 2]) < 0.5 ORDER BY L2Distance(v, [1, 2]) LIMIT 10`).(*Select)
	if len(sel.Where) != 1 || sel.Where[0].Distance == nil {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[0].Op != OpLt || sel.Where[0].Value.(float64) != 0.5 {
		t.Fatalf("range pred = %+v", sel.Where[0])
	}
}

func TestParseSelectScalarOrderBy(t *testing.T) {
	sel := mustParse(t, `SELECT id FROM t ORDER BY ts DESC LIMIT 3`).(*Select)
	if sel.OrderBy.Column != "ts" || !sel.OrderBy.Desc || sel.OrderBy.Distance != nil {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC id FROM t",
		"CREATE TABLE (x UInt64)",
		"CREATE TABLE t (x UInt64) CLUSTER BY x INTO BUCKETS",
		"INSERT INTO t VALUES 1, 2",
		"SELECT id FROM t WHERE",
		"SELECT id FROM t WHERE L2Distance(v, [1]) = 3",
		"SELECT id FROM t LIMIT abc",
		"SELECT id FROM t SETTINGS x",
		"SELECT id FROM t; SELECT id FROM t",
		"INSERT INTO t CSV INFILE path",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestStatementString(t *testing.T) {
	for _, src := range []string{
		"DROP TABLE t",
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t CSV INFILE 'x.csv'",
		"SELECT a, b FROM t",
		"CREATE TABLE t (x UInt64)",
	} {
		st := mustParse(t, src)
		if s := StatementString(st); s == "" || strings.Contains(s, "%!") {
			t.Errorf("StatementString(%q) = %q", src, s)
		}
	}
}

func TestParseShowDescribeDeleteOptimize(t *testing.T) {
	if _, ok := mustParse(t, `SHOW TABLES`).(*ShowTables); !ok {
		t.Fatal("SHOW TABLES")
	}
	d := mustParse(t, `DESCRIBE TABLE foo`).(*Describe)
	if d.Name != "foo" {
		t.Fatalf("describe = %+v", d)
	}
	if mustParse(t, `DESC foo`).(*Describe).Name != "foo" {
		t.Fatal("DESC shorthand")
	}
	del := mustParse(t, `DELETE FROM t WHERE id IN (1, 2, 3)`).(*Delete)
	if del.Table != "t" || del.Column != "id" || len(del.Keys) != 3 || del.Keys[2] != 3 {
		t.Fatalf("delete = %+v", del)
	}
	del = mustParse(t, `DELETE FROM t WHERE id = 9`).(*Delete)
	if len(del.Keys) != 1 || del.Keys[0] != 9 {
		t.Fatalf("delete single = %+v", del)
	}
	opt := mustParse(t, `OPTIMIZE TABLE t`).(*Optimize)
	if opt.Name != "t" {
		t.Fatalf("optimize = %+v", opt)
	}
	for _, bad := range []string{
		`SHOW`, `DELETE FROM t`, `DELETE FROM t WHERE id > 3`, `OPTIMIZE t`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestParseBackupRestore(t *testing.T) {
	b := mustParse(t, `BACKUP TABLE images TO './backups/images'`).(*Backup)
	if b.Table != "images" || b.Dest != "./backups/images" || b.Key != "" {
		t.Fatalf("backup = %+v", b)
	}
	b = mustParse(t, `BACKUP TABLE t TO '/mnt/bk' WITH KEY 'open sesame'`).(*Backup)
	if b.Table != "t" || b.Dest != "/mnt/bk" || b.Key != "open sesame" {
		t.Fatalf("backup with key = %+v", b)
	}
	r := mustParse(t, `RESTORE TABLE images FROM './backups/images'`).(*Restore)
	if r.Table != "images" || r.Source != "./backups/images" || r.Key != "" {
		t.Fatalf("restore = %+v", r)
	}
	r = mustParse(t, `RESTORE TABLE t FROM 's' WITH KEY 'k'`).(*Restore)
	if r.Key != "k" {
		t.Fatalf("restore with key = %+v", r)
	}
	// Round-trip through StatementString reparses to the same statement.
	rt := mustParse(t, StatementString(b)).(*Backup)
	if *rt != *b {
		t.Fatalf("backup round trip = %+v, want %+v", rt, b)
	}
	for _, bad := range []string{
		`BACKUP images TO 'x'`,       // missing TABLE
		`BACKUP TABLE t 'x'`,         // missing TO
		`BACKUP TABLE t TO x`,        // destination must be a string
		`BACKUP TABLE t TO 'x' WITH`, // dangling WITH
		`BACKUP TABLE t TO 'x' WITH KEY`,
		`RESTORE TABLE t TO 'x'`, // RESTORE takes FROM
		`RESTORE TABLE t FROM`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

// benchSelect is the shape of the served hybrid statements: a filtered
// top-k whose query vector is a dim-element literal.
func benchSelect(dim int) string {
	var b strings.Builder
	b.WriteString("SELECT id, attr, d FROM items WHERE attr < 500000 ORDER BY L2Distance(v, [")
	for i := 0; i < dim; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("0.")
		b.WriteString(strings.Repeat("37", 1+i%3))
	}
	b.WriteString("]) AS d LIMIT 10")
	return b.String()
}

// TestParseAllocs bounds what one parse of a 128-d filtered top-k
// costs: punctuation tokens slice the source and the vector literal is
// sized once, so the count no longer scales with the dimension (it was
// 153 with a 1-byte string per comma).
func TestParseAllocs(t *testing.T) {
	src := benchSelect(128)
	sel := mustParse(t, src).(*Select)
	if got := len(sel.OrderBy.Distance.Query); got != 128 {
		t.Fatalf("query vector has %d elements, want 128", got)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	}); allocs > 25 {
		t.Fatalf("Parse of a 128-d SELECT allocated %.0f times, want <= 25", allocs)
	}
}

func TestVectorLiteralShapes(t *testing.T) {
	for src, want := range map[string][]float32{
		`[1, 2, 3]`: {1, 2, 3},
		`[1 2 3]`:   {1, 2, 3}, // separators are optional: the comma count only sizes the slice
		`[1, 2, ]`:  {1, 2},
		`[-0.5]`:    {-0.5},
		`[]`:        nil,
	} {
		ins := mustParse(t, `INSERT INTO t VALUES (`+src+`)`).(*Insert)
		got := ins.Rows[0][0].([]float32)
		if len(got) != len(want) || (want == nil) != (got == nil) {
			t.Fatalf("%s parsed to %v, want %v", src, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s parsed to %v, want %v", src, got, want)
			}
		}
	}
	if _, err := Parse(`INSERT INTO t VALUES ([1, 2`); err == nil {
		t.Fatal("unterminated vector literal should fail")
	}
}

func TestLeadsWith(t *testing.T) {
	for src, want := range map[string]bool{
		"SELECT 1":                       true,
		"  \n-- why\n select id FROM t":  true,
		"SELECT":                         true,
		"SELECT garbage that won't [":    true, // the kind is the first keyword, whatever follows
		"EXPLAIN SELECT id FROM t":       false,
		"EXPLAIN ANALYZE SELECT 1":       false,
		"INSERT INTO t VALUES (1)":       false,
		"SELECTED":                       false,
		"'SELECT'":                       false,
		"":                               false,
		"! SELECT":                       false,
		"(SELECT 1)":                     false,
		"SET batch = off":                false,
		"SHOW TABLES":                    false,
		"selecT id from t":               true,
		"\tSELECT\tid FROM t":            true,
		"select/**/1":                    true,
		"select*from t":                  true,
		"-- only a comment":              false,
		"-- SELECT hidden\nDROP TABLE t": false,
	} {
		if got := LeadsWith(src, "SELECT"); got != want {
			t.Errorf("LeadsWith(%q, SELECT) = %t, want %t", src, got, want)
		}
	}
	src := benchSelect(128)
	if allocs := testing.AllocsPerRun(50, func() { LeadsWith(src, "SELECT") }); allocs != 0 {
		t.Fatalf("LeadsWith allocated %.0f times, want 0", allocs)
	}
}
