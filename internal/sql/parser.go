package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Parse parses one query (optionally terminated by ';').
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected %s after query", p.peek())
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// keyword reports whether the next token is the given keyword
// (case-insensitive) and consumes it when so.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

// accept consumes the next token when it is the given symbol.
func (p *parser) accept(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.accept(sym) {
		return fmt.Errorf("sql: expected %q, found %s", sym, p.peek())
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("sql: expected %s, found %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %s", t)
	}
	p.i++
	return t.text, nil
}

var aggNames = map[string]ops.AggFunc{
	"count": ops.Count,
	"sum":   ops.Sum,
	"avg":   ops.Avg,
	"min":   ops.Min,
	"max":   ops.Max,
}

var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"by": true, "and": true, "for": true, "windowis": true, "as": true,
	"order": true, "limit": true, "asc": true, "desc": true,
	"distinct": true,
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.keyword("distinct") {
		q.Distinct = true
	}
	if p.accept("*") {
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, item)
			if !p.accept(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Dotted source names ("tcq.stats") name introspection streams;
		// the dot is part of the name, not a qualifier.
		if p.accept(".") {
			part, err := p.ident()
			if err != nil {
				return nil, err
			}
			name = name + "." + part
		}
		ref := TableRef{Name: name}
		p.keyword("as")
		if t := p.peek(); t.kind == tokIdent && !reserved[strings.ToLower(t.text)] {
			ref.Alias = p.next().text
		}
		q.From = append(q.From, ref)
		if !p.accept(",") {
			break
		}
	}

	if p.keyword("where") {
		for {
			c, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, c)
			if !p.keyword("and") {
				break
			}
		}
	}

	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if !p.accept(",") {
				break
			}
		}
	}

	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		c, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		q.OrderBy = c
		q.HasOrder = true
		if p.keyword("desc") {
			q.Desc = true
		} else {
			p.keyword("asc")
		}
	}

	if p.keyword("limit") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sql: negative LIMIT %d", n)
		}
		q.Limit = n
	}

	if p.keyword("for") {
		loop, err := p.parseForLoop()
		if err != nil {
			return nil, err
		}
		q.Loop = loop
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokIdent {
		if fn, isAgg := aggNames[strings.ToLower(t.text)]; isAgg &&
			p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.i += 2 // agg name and '('
			item := SelectItem{HasAgg: true, Agg: fn}
			if p.accept("*") {
				item.Col = expr.ColRef{Column: "*"}
			} else {
				c, err := p.parseColRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Col = c
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			return item, nil
		}
	}
	c, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: c}, nil
}

func (p *parser) parseColRef() (expr.ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return expr.ColRef{}, err
	}
	if p.accept(".") {
		col, err := p.ident()
		if err != nil {
			return expr.ColRef{}, err
		}
		// Three-part refs qualify columns of dotted stream names:
		// tcq.stats.module means Relation "tcq.stats", Column "module".
		if p.accept(".") {
			third, err := p.ident()
			if err != nil {
				return expr.ColRef{}, err
			}
			return expr.ColRef{Relation: first + "." + col, Column: third}, nil
		}
		return expr.ColRef{Relation: first, Column: col}, nil
	}
	return expr.ColRef{Column: first}, nil
}

var opSymbols = map[string]expr.Op{
	"=": expr.Eq, "==": expr.Eq,
	"<>": expr.Ne, "!=": expr.Ne,
	"<": expr.Lt, "<=": expr.Le,
	">": expr.Gt, ">=": expr.Ge,
}

func (p *parser) parseOp() (expr.Op, error) {
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := opSymbols[t.text]; ok {
			p.i++
			return op, nil
		}
	}
	return 0, fmt.Errorf("sql: expected comparison operator, found %s", t)
}

func (p *parser) parseComparison() (expr.Comparison, error) {
	left, err := p.parseColRef()
	if err != nil {
		return expr.Comparison{}, err
	}
	op, err := p.parseOp()
	if err != nil {
		return expr.Comparison{}, err
	}
	t := p.peek()
	switch {
	case t.kind == tokIdent:
		right, err := p.parseColRef()
		if err != nil {
			return expr.Comparison{}, err
		}
		return expr.Comparison{Left: left, Op: op, RightCol: right, IsJoin: true}, nil
	case t.kind == tokString:
		p.i++
		return expr.Comparison{Left: left, Op: op, RightVal: tuple.String_(t.text)}, nil
	default:
		v, err := p.parseNumber()
		if err != nil {
			return expr.Comparison{}, err
		}
		return expr.Comparison{Left: left, Op: op, RightVal: v}, nil
	}
}

// parseNumber parses an optionally negated numeric literal as a Value.
func (p *parser) parseNumber() (tuple.Value, error) {
	neg := p.accept("-")
	t := p.peek()
	if t.kind != tokNumber {
		return tuple.Null, fmt.Errorf("sql: expected number, found %s", t)
	}
	p.i++
	if strings.ContainsRune(t.text, '.') {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return tuple.Null, fmt.Errorf("sql: bad number %q: %w", t.text, err)
		}
		if neg {
			f = -f
		}
		return tuple.Float(f), nil
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return tuple.Null, fmt.Errorf("sql: bad number %q: %w", t.text, err)
	}
	if neg {
		v = -v
	}
	return tuple.Int(v), nil
}

// parseInt parses an optionally negated integer literal: a number with a
// fraction is refused, not truncated.
func (p *parser) parseInt() (int64, error) {
	v, err := p.parseNumber()
	if err != nil {
		return 0, err
	}
	if v.K != tuple.KindInt {
		return 0, fmt.Errorf("sql: expected integer, found %s", p.toks[p.i-1])
	}
	return v.I, nil
}

// parseForLoop parses the paper's window construct. The grammar is
//
//	for '(' [t = INT] ';' [cond] ';' [change] ')' '{' windowIs* '}'
//	cond   := t OP INT          (omitted means run forever)
//	change := t++ | t-- | t += INT | t -= INT | t = INT
//	windowIs := WindowIs '(' stream ',' affine ',' affine ')' ';'
//	affine := t [±INT] | INT
func (p *parser) parseForLoop() (*window.Loop, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	loop := &window.Loop{Cond: window.Forever, Step: 1}

	// init
	if !p.accept(";") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		if !p.accept("=") {
			return nil, fmt.Errorf("sql: expected '=' in loop init, found %s", p.peek())
		}
		v, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		loop.Init = v
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
	}

	// condition
	if !p.accept(";") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		bound, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		loop.Cond = window.While(op, bound)
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
	}

	// change
	if !p.accept(")") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		switch {
		case p.accept("++"):
			loop.Step = 1
		case p.accept("--"):
			loop.Step = -1
		case p.accept("+="):
			v, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			loop.Step = v
		case p.accept("-="):
			v, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			loop.Step = -v
		case p.accept("="):
			// Absolute reassignment (paper Example 1: "t = -1"): the
			// loop leaves its condition after one iteration; model as
			// the equivalent additive step.
			v, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			step := v - loop.Init
			// Refuse steps that wrap or that render as -2^63 (whose
			// absolute value is no integer literal), so that Loop.String
			// parses back to the same loop.
			if (v >= loop.Init) != (step >= 0) || step == math.MinInt64 {
				return nil, fmt.Errorf("sql: loop reassignment t = %d overflows the step", v)
			}
			loop.Step = step
		default:
			return nil, fmt.Errorf("sql: expected loop change, found %s", p.peek())
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}

	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	for !p.accept("}") {
		if err := p.expectKeyword("windowis"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		stream, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
		left, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
		right, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.accept(";")
		loop.Windows = append(loop.Windows, window.WindowIs{
			Stream: stream, Left: left, Right: right,
		})
	}
	return loop, nil
}

func (p *parser) expectLoopVar() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if !strings.EqualFold(name, "t") {
		return fmt.Errorf("sql: loop variable must be 't', found %q", name)
	}
	return nil
}

// parseAffine parses "t", "t+K", "t-K", or "K".
func (p *parser) parseAffine() (window.Affine, error) {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "t") {
		p.i++
		switch {
		case p.accept("+"):
			v, err := p.parseInt()
			if err != nil {
				return window.Affine{}, err
			}
			return window.T(v), nil
		case p.accept("-"):
			v, err := p.parseInt()
			if err != nil {
				return window.Affine{}, err
			}
			return window.T(-v), nil
		default:
			return window.T(0), nil
		}
	}
	v, err := p.parseInt()
	if err != nil {
		return window.Affine{}, err
	}
	return window.Const(v), nil
}
