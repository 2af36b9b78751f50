package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"guava/internal/etl"
	"guava/internal/relstore"
)

// Extract queries arrive as URL parameters and compile into relstore
// predicates, so filtering runs inside the table (with index pushdown for
// equality) instead of materializing the whole study per request:
//
//	GET /studies/reference/extract?Smoking_D3=Heavy            (equality)
//	GET /studies/reference/extract?EntityKey.ge=10&limit=50    (range + page)
//
// A parameter is <Column>=<value> for equality or <Column>.<op>=<value>
// with op one of eq, ne, lt, le, gt, ge. Values are coerced to the output
// column's declared kind; "limit" and "offset" page through the canonical
// order — every column ascending, in schema order. Each generation is
// published already stored in that order, so a cache miss counts the
// matches and renders only the page's stored rows; nothing is sorted or
// copied per request.
const (
	defaultLimit = 100
	maxLimit     = 10000
)

var cmpOps = map[string]relstore.CmpOp{
	"eq": relstore.CmpEq,
	"ne": relstore.CmpNe,
	"lt": relstore.CmpLt,
	"le": relstore.CmpLe,
	"gt": relstore.CmpGt,
	"ge": relstore.CmpGe,
}

// extractQuery is one parsed extract request.
type extractQuery struct {
	pred   relstore.Pred // nil = no filter
	limit  int
	offset int
	key    string // canonical cache key (sorted query encoding)
	// contributor is set when the query is pinned to exactly one
	// contributor partition (a single Contributor equality filter) — the
	// result is then cache-stamped with that partition's generation.
	contributor string
}

// parseExtractQuery validates the request parameters against the study's
// output schema and compiles the filter predicate.
func parseExtractQuery(schema *relstore.Schema, q url.Values) (*extractQuery, error) {
	out := &extractQuery{limit: defaultLimit, key: q.Encode()}
	var preds []relstore.Pred
	contribParams := 0
	for key, vals := range q {
		switch key {
		case "limit":
			n, err := strconv.Atoi(vals[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("limit must be a non-negative integer, got %q", vals[0])
			}
			out.limit = min(n, maxLimit)
			continue
		case "offset":
			n, err := strconv.Atoi(vals[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("offset must be a non-negative integer, got %q", vals[0])
			}
			out.offset = n
			continue
		}
		col, opName := key, "eq"
		if i := strings.LastIndex(key, "."); i >= 0 {
			col, opName = key[:i], key[i+1:]
		}
		op, ok := cmpOps[opName]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q in %q (want eq, ne, lt, le, gt, ge)", opName, key)
		}
		c, err := schema.Col(col)
		if err != nil {
			return nil, fmt.Errorf("unknown column %q (have %s)", col, schema.NameList())
		}
		if col == etl.ContributorColumn {
			contribParams++
			if contribParams == 1 && opName == "eq" && len(vals) == 1 {
				out.contributor = vals[0]
			} else {
				// Ranges or multiple Contributor filters span partitions;
				// fall back to the study-wide generation stamp.
				out.contributor = ""
			}
		}
		for _, raw := range vals {
			v, err := parseParamValue(raw, c.Type)
			if err != nil {
				return nil, fmt.Errorf("column %s: %v", col, err)
			}
			preds = append(preds, relstore.Cmp(op, relstore.Col(col), relstore.Lit(v)))
		}
	}
	if len(preds) > 0 {
		out.pred = relstore.And(preds...)
	}
	return out, nil
}

// parseParamValue coerces a raw query-string value to the column's kind.
func parseParamValue(raw string, kind relstore.Kind) (relstore.Value, error) {
	switch kind {
	case relstore.KindInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return relstore.Value{}, fmt.Errorf("%q is not an integer", raw)
		}
		return relstore.Int(n), nil
	case relstore.KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return relstore.Value{}, fmt.Errorf("%q is not a number", raw)
		}
		return relstore.Float(f), nil
	case relstore.KindBool:
		b, err := strconv.ParseBool(strings.ToLower(raw))
		if err != nil {
			return relstore.Value{}, fmt.Errorf("%q is not a boolean", raw)
		}
		return relstore.Bool(b), nil
	default:
		return relstore.Str(raw), nil
	}
}

// valueJSON renders one cell for the API: NULL as JSON null, everything
// else as its natural JSON scalar.
func valueJSON(v relstore.Value) any {
	switch v.Kind() {
	case relstore.KindInt:
		return v.AsInt()
	case relstore.KindFloat:
		return v.AsFloat()
	case relstore.KindString:
		return v.AsString()
	case relstore.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// resultCache holds rendered extract bodies stamped with the study
// generation they were computed from. A refresh that changes the warehouse
// bumps the generation, which invalidates every cached extract for that
// study on its next lookup; a no-op refresh leaves the generation — and so
// the cache — intact.
type resultCache struct {
	mu  sync.Mutex
	lru *lru[*resultEntry]
}

type resultEntry struct {
	gen  int64
	body []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{lru: newLRU[*resultEntry](capacity)}
}

// get returns the cached body for key if it was rendered at generation gen.
// A stale entry (older or newer generation) is dropped and reported as a
// miss.
func (c *resultCache) get(key string, gen int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.get(key)
	if !ok {
		return nil, false
	}
	if e.gen != gen {
		c.lru.remove(key)
		return nil, false
	}
	return e.body, true
}

// put stores body for key at generation gen and returns how many entries
// were evicted for capacity.
func (c *resultCache) put(key string, gen int64, body []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lru.put(key, &resultEntry{gen: gen, body: body}))
}
