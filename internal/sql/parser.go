package sql

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"blendhouse/internal/obs"
)

// Parser is a hand-written recursive-descent parser with one token of
// lookahead.
type Parser struct {
	lex *Lexer
	tok Token     // the current token; lex stands just past it
	def *deferral // non-nil: an INSERT's vector literals are skipped and converted by workers
}

// mParses counts Parse calls (bh.sql.parses). A served statement is
// parsed exactly once, so over any interval it moves in step with the
// statements executed; a layer that parses again just to classify a
// statement shows up as a ratio above one.
var mParses = obs.Default().Counter("bh.sql.parses")

// deferMinBytes is the statement size from which Parse converts an
// INSERT's vector literals on GOMAXPROCS workers instead of in its own
// pass. BenchmarkParseInsert at 128 dimensions on two cores: 8 rows
// (12 KB) take 58 µs serially and 68 µs deferred, 64 rows (96 KB)
// 0.64 ms and 0.43 ms, 500 rows (0.75 MB) 4.1 ms and 2.5 ms.
const deferMinBytes = 64 << 10

// Parse parses a single statement (a trailing semicolon is allowed).
// An INSERT of deferMinBytes or more on more than one P converts its
// vectors on workers (parseDeferred); whatever that path cannot vouch
// for is parsed again serially, so rows and errors are the serial
// parser's either way.
func Parse(src string) (Statement, error) {
	mParses.Inc()
	if len(src) >= deferMinBytes && runtime.GOMAXPROCS(0) > 1 {
		if st, ok := parseDeferred(src); ok {
			return st, nil
		}
	}
	return parse(src, nil)
}

// parse is the parser's one pass over src; d, when non-nil, takes the
// INSERT's vector literals off it.
func parse(src string, d *deferral) (Statement, error) {
	p := &Parser{lex: NewLexer(src), def: d}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokPunct && p.tok.Text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, fmt.Errorf("sql: trailing input at %d: %q", p.tok.Pos, p.tok.Text)
	}
	return st, nil
}

func (p *Parser) advance() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// isKw reports whether the current token is the given keyword
// (case-insensitive).
func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, kw)
}

func (p *Parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("sql: expected %s at %d, got %q", kw, p.tok.Pos, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) expectPunct(s string) error {
	if p.tok.Kind != TokPunct || p.tok.Text != s {
		return fmt.Errorf("sql: expected %q at %d, got %q", s, p.tok.Pos, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) ident() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier at %d, got %q", p.tok.Pos, p.tok.Text)
	}
	s := p.tok.Text
	return s, p.advance()
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("SHOW"):
		return p.parseShow()
	case p.isKw("DESCRIBE"), p.isKw("DESC"):
		return p.parseDescribe()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("OPTIMIZE"):
		return p.parseOptimize()
	case p.isKw("EXPLAIN"):
		return p.parseExplain()
	case p.isKw("BACKUP"):
		return p.parseBackup()
	case p.isKw("RESTORE"):
		return p.parseRestore()
	default:
		return nil, fmt.Errorf("sql: unexpected statement start %q at %d", p.tok.Text, p.tok.Pos)
	}
}

// --- CREATE TABLE -----------------------------------------------------------

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.isKw("INDEX") {
			idx, err := p.parseIndexSpec()
			if err != nil {
				return nil, err
			}
			ct.Indexes = append(ct.Indexes, *idx)
		} else {
			col, err := p.parseColumnSpec()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, *col)
		}
		if p.tok.Kind == TokPunct && p.tok.Text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// Optional clauses in any of the paper's orders: ORDER BY,
	// PARTITION BY, CLUSTER BY.
	for {
		switch {
		case p.isKw("ORDER"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw("BY"); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct.OrderBy = col
		case p.isKw("PARTITION"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw("BY"); err != nil {
				return nil, err
			}
			cols, err := p.parsePartitionList()
			if err != nil {
				return nil, err
			}
			ct.PartitionBy = cols
		case p.isKw("CLUSTER"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw("BY"); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct.ClusterBy = col
			if err := p.expectKw("INTO"); err != nil {
				return nil, err
			}
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			ct.ClusterBuckets = int(n)
			if err := p.expectKw("BUCKETS"); err != nil {
				return nil, err
			}
		default:
			return ct, nil
		}
	}
}

// parsePartitionList parses (expr, expr) or a bare expr, where expr is
// a column or func(column) — functions reduce to their column.
func (p *Parser) parsePartitionList() ([]string, error) {
	var cols []string
	parenthesized := p.tok.Kind == TokPunct && p.tok.Text == "("
	if parenthesized {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind == TokPunct && p.tok.Text == "(" {
			// function wrapper: func(col) → col
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			name = inner
		}
		cols = append(cols, name)
		if parenthesized && p.tok.Kind == TokPunct && p.tok.Text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if parenthesized {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

func (p *Parser) parseColumnSpec() (*ColumnSpec, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	typeName, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Array(Float32)-style parameterized type.
	if p.tok.Kind == TokPunct && p.tok.Text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		typeName = typeName + "(" + inner + ")"
	}
	return &ColumnSpec{Name: name, TypeName: typeName}, nil
}

func (p *Parser) parseIndexSpec() (*IndexSpec, error) {
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("TYPE"); err != nil {
		return nil, err
	}
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	idx := &IndexSpec{Name: name, Column: col, Kind: strings.ToUpper(kind)}
	if p.tok.Kind == TokPunct && p.tok.Text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for p.tok.Kind == TokString {
			idx.Params = append(idx.Params, p.tok.Text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Kind == TokPunct && p.tok.Text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

func (p *Parser) parseShow() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case p.isKw("TABLES"):
		return &ShowTables{}, p.advance()
	case p.isKw("METRICS"):
		return &ShowMetrics{}, p.advance()
	case p.isKw("TRACES"):
		return &ShowTraces{}, p.advance()
	default:
		return nil, fmt.Errorf("sql: expected TABLES, METRICS or TRACES at %d, got %q", p.tok.Pos, p.tok.Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <select>.
func (p *Parser) parseExplain() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	ex := &Explain{}
	if p.isKw("ANALYZE") {
		ex.Analyze = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	ex.Query = st.(*Select)
	return ex, nil
}

func (p *Parser) parseDescribe() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.isKw("TABLE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &Describe{Name: name}, nil
}

// parseDelete accepts the keyed forms DELETE FROM t WHERE col = n and
// DELETE FROM t WHERE col IN (n, ...) — the multi-version delete path.
func (p *Parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("WHERE"); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table, Column: col}
	switch {
	case p.tok.Kind == TokOp && p.tok.Text == "=":
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		del.Keys = []int64{n}
	case p.isKw("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			del.Keys = append(del.Keys, n)
			if p.tok.Kind == TokPunct && p.tok.Text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: DELETE supports key = n or key IN (...) at %d", p.tok.Pos)
	}
	return del, nil
}

func (p *Parser) parseOptimize() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &Optimize{Name: name}, nil
}

// parseBackup parses BACKUP TABLE t TO 'dest' [WITH KEY 'secret'].
func (p *Parser) parseBackup() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("TO"); err != nil {
		return nil, err
	}
	dest, err := p.stringLit("BACKUP ... TO")
	if err != nil {
		return nil, err
	}
	key, err := p.parseWithKey()
	if err != nil {
		return nil, err
	}
	return &Backup{Table: name, Dest: dest, Key: key}, nil
}

// parseRestore parses RESTORE TABLE t FROM 'src' [WITH KEY 'secret'].
func (p *Parser) parseRestore() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	src, err := p.stringLit("RESTORE ... FROM")
	if err != nil {
		return nil, err
	}
	key, err := p.parseWithKey()
	if err != nil {
		return nil, err
	}
	return &Restore{Table: name, Source: src, Key: key}, nil
}

// parseWithKey parses the optional WITH KEY 'secret' clause.
func (p *Parser) parseWithKey() (string, error) {
	if !p.isKw("WITH") {
		return "", nil
	}
	if err := p.advance(); err != nil {
		return "", err
	}
	if err := p.expectKw("KEY"); err != nil {
		return "", err
	}
	return p.stringLit("WITH KEY")
}

// stringLit consumes a quoted string token.
func (p *Parser) stringLit(clause string) (string, error) {
	if p.tok.Kind != TokString {
		return "", fmt.Errorf("sql: %s expects a quoted string at %d, got %q", clause, p.tok.Pos, p.tok.Text)
	}
	s := p.tok.Text
	return s, p.advance()
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

// --- INSERT -----------------------------------------------------------------

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.isKw("CSV") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("INFILE"); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, fmt.Errorf("sql: INFILE expects a quoted path at %d", p.tok.Pos)
		}
		ins.Infile = p.tok.Text
		return ins, p.advance()
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	width := 0 // the previous row's, to size the next
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		row := make([]any, 0, width)
		for {
			var v any
			var err error
			if p.def != nil && p.tok.Kind == TokPunct && p.tok.Text == "[" {
				err = p.deferVector(len(ins.Rows), len(row))
			} else {
				v, err = p.literal()
			}
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.tok.Kind == TokPunct && p.tok.Text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		width = len(row)
		if p.tok.Kind == TokPunct && p.tok.Text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return ins, nil
}

// literal parses int, float, string, or [float,...] vector.
func (p *Parser) literal() (any, error) {
	switch {
	case p.tok.Kind == TokNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", text)
			}
			return f, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer %q", text)
		}
		return n, nil
	case p.tok.Kind == TokString:
		s := p.tok.Text
		return s, p.advance()
	case p.tok.Kind == TokPunct && p.tok.Text == "[":
		return p.vectorLiteral()
	default:
		return nil, fmt.Errorf("sql: expected literal at %d, got %q", p.tok.Pos, p.tok.Text)
	}
}

// vectorLiteral parses [f, f, ...] in one pass over the source: the
// lexer converts the elements in place (vectorElems), and no token is
// built until the first thing that is neither an element nor a comma.
// That one is lexed as a token, so a malformed list fails with the
// error, and at the position, of a token-by-token parse.
func (p *Parser) vectorLiteral() ([]float32, error) {
	if p.tok.Kind != TokPunct || p.tok.Text != "[" {
		return nil, p.expectPunct("[")
	}
	out, err := p.lex.vectorElems(p.tok.Pos)
	if err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) intLit() (int64, error) {
	if p.tok.Kind != TokNumber {
		return 0, fmt.Errorf("sql: expected integer at %d, got %q", p.tok.Pos, p.tok.Text)
	}
	n, err := strconv.ParseInt(p.tok.Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad integer %q", p.tok.Text)
	}
	return n, p.advance()
}

// --- SELECT -----------------------------------------------------------------

var distanceFuncs = map[string]bool{
	"l2distance": true, "innerproduct": true, "cosinedistance": true, "ipdistance": true,
}

func isDistanceFunc(name string) bool { return distanceFuncs[strings.ToLower(name)] }

func (p *Parser) parseSelect() (Statement, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Settings: map[string]int{}}
	for {
		if p.tok.Kind == TokPunct && p.tok.Text == "*" {
			sel.Columns = append(sel.Columns, SelectItem{Star: true})
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, SelectItem{Name: name})
		}
		if p.tok.Kind == TokPunct && p.tok.Text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = table

	if p.isKw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, *pred)
			if p.isKw("AND") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKw("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		ob, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = ob
	}
	if p.isKw("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = int(n)
	}
	if p.isKw("SETTINGS") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			key, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.tok.Kind != TokOp || p.tok.Text != "=" {
				return nil, fmt.Errorf("sql: SETTINGS expects key=value at %d", p.tok.Pos)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			sel.Settings[strings.ToLower(key)] = int(n)
			if p.tok.Kind == TokPunct && p.tok.Text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	return sel, nil
}

func (p *Parser) parseOrderBy() (*OrderBy, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ob := &OrderBy{}
	if isDistanceFunc(name) {
		de, err := p.parseDistanceCall(name)
		if err != nil {
			return nil, err
		}
		ob.Distance = de
		if p.isKw("AS") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			alias, err := p.ident()
			if err != nil {
				return nil, err
			}
			ob.Alias = alias
		}
	} else {
		ob.Column = name
	}
	if p.isKw("DESC") {
		ob.Desc = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if p.isKw("ASC") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return ob, nil
}

// parseDistanceCall parses (column, [vector]) after the function name.
func (p *Parser) parseDistanceCall(fn string) (*DistanceExpr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	q, err := p.vectorLiteral()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &DistanceExpr{Func: fn, Column: col, Query: q}, nil
}

func (p *Parser) parsePredicate() (*Predicate, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if isDistanceFunc(name) {
		de, err := p.parseDistanceCall(name)
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != TokOp || (p.tok.Text != "<" && p.tok.Text != "<=") {
			return nil, fmt.Errorf("sql: distance predicate expects < or <= at %d", p.tok.Pos)
		}
		op := PredOp(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &Predicate{Op: op, Value: v, Distance: de}, nil
	}
	switch {
	case p.isKw("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.literal()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &Predicate{Column: name, Op: OpBetween, Value: lo, Value2: hi}, nil
	case p.isKw("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var vals []any
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.tok.Kind == TokPunct && p.tok.Text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Predicate{Column: name, Op: OpIn, Values: vals}, nil
	case p.isKw("REGEXP") || p.isKw("LIKE"):
		op := OpRegexp
		if p.isKw("LIKE") {
			op = OpLike
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, fmt.Errorf("sql: %s expects a quoted pattern at %d", op, p.tok.Pos)
		}
		pat := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Predicate{Column: name, Op: op, Value: pat}, nil
	case p.tok.Kind == TokOp:
		op := PredOp(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &Predicate{Column: name, Op: op, Value: v}, nil
	default:
		return nil, fmt.Errorf("sql: expected operator after %q at %d", name, p.tok.Pos)
	}
}
