package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// The extract equivalence property: whatever sequence of contributor
// mutations, full refreshes, delta refreshes and restarts produced the
// served generation, every extract body equals — byte for byte — the page
// the sort-per-request path would render: select the matches, sort them on
// every column, slice the page.

// workloadDeployment is a small `studyd -with-text`: the three vendor
// contributors plus free-text Notes, the reference study, and a durable
// warehouse directory that restarts recover from.
type workloadDeployment struct {
	contribs []*workload.Contributor
	spec     *etl.StudySpec
	dir      string
	srv      *Server
	st       *servedStudy
}

func deployWorkload(t *testing.T, seed int64, n int) *workloadDeployment {
	t.Helper()
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		t.Fatal(err)
	}
	d := &workloadDeployment{contribs: append(contribs, notes), dir: t.TempDir()}
	if d.spec, err = baseline.ReferenceSpec(d.contribs); err != nil {
		t.Fatal(err)
	}
	d.start(t)
	return d
}

// start brings up a fresh server over the deployment's warehouse
// directory: the first start runs the initial full refresh, later ones
// recover the last persisted generation.
func (d *workloadDeployment) start(t *testing.T) {
	t.Helper()
	d.srv = NewServer(Config{Observer: obs.NewObserver(), WarehouseDir: d.dir})
	if err := d.srv.AddStudy(context.Background(), d.spec); err != nil {
		t.Fatal(err)
	}
	d.st, _ = d.srv.study(d.spec.Name)
}

// extract serves one extract through the real handler.
func (d *workloadDeployment) extract(t *testing.T, q url.Values) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/studies/"+d.spec.Name+"/extract?"+q.Encode(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("extract %s: %d %s", q.Encode(), rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// oracleExtract renders q from the current generation the way extracts
// were served before generations were published in canonical order: Select
// over a snapshot, SortBy on every column, slice the page, render.
func oracleExtract(t *testing.T, st *servedStudy, q url.Values) (body []byte, total int) {
	t.Helper()
	query, err := parseExtractQuery(st.schema, q)
	if err != nil {
		t.Fatal(err)
	}
	g := st.pin()
	defer g.unpin()
	rows, err := relstore.Select(g.table.Rows(), query.pred)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err = relstore.SortBy(rows, rows.Schema.Names()...); err != nil {
		t.Fatal(err)
	}
	total = rows.Len()
	lo := min(query.offset, total)
	hi := min(lo+query.limit, total)
	page := make([][]any, 0, hi-lo)
	for _, row := range rows.Data[lo:hi] {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = valueJSON(v)
		}
		page = append(page, cells)
	}
	body, err = json.Marshal(map[string]any{
		"study":      st.name,
		"generation": g.genFor(query.contributor),
		"total":      total,
		"offset":     query.offset,
		"limit":      query.limit,
		"returned":   hi - lo,
		"columns":    columnInfos(st.schema),
		"rows":       page,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n'), total
}

// paramValue renders a cell as the query-string value that parses back to it.
func paramValue(v relstore.Value) string {
	switch v.Kind() {
	case relstore.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case relstore.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case relstore.KindBool:
		return strconv.FormatBool(v.AsBool())
	default:
		return v.AsString()
	}
}

// extractFilters draws a query set from the rows of the current
// generation: unfiltered, a Contributor partition, an equality on a
// non-indexed column, an EntityKey range, and combinations of them.
func extractFilters(r *rand.Rand, st *servedStudy) []url.Values {
	g := st.pin()
	rows := g.table.Rows()
	g.unpin()
	filters := []url.Values{{}}
	if rows.Len() == 0 {
		return filters
	}
	row := rows.Data[r.Intn(rows.Len())]
	ki := rows.Schema.Index(etl.EntityKeyColumn)
	key := row[ki].AsInt()
	contributor := url.Values{etl.ContributorColumn: {paramValue(row[rows.Schema.Index(etl.ContributorColumn)])}}
	var other url.Values
	for _, c := range r.Perm(rows.Schema.Arity()) {
		name := rows.Schema.Columns[c].Name
		if name != etl.EntityKeyColumn && name != etl.ContributorColumn && !row[c].IsNull() {
			other = url.Values{name: {paramValue(row[c])}}
			break
		}
	}
	keyRange := url.Values{
		etl.EntityKeyColumn + ".ge": {strconv.FormatInt(key-int64(r.Intn(10)), 10)},
		etl.EntityKeyColumn + ".lt": {strconv.FormatInt(key+1+int64(r.Intn(10)), 10)},
	}
	merge := func(vs ...url.Values) url.Values {
		out := url.Values{}
		for _, v := range vs {
			for k, x := range v {
				out[k] = x
			}
		}
		return out
	}
	filters = append(filters, contributor, keyRange, merge(contributor, keyRange))
	if other != nil {
		filters = append(filters, other, merge(contributor, other), merge(other, keyRange))
	}
	return filters
}

// checkExtracts pages every filter at the first, middle, last, one-past
// and far-past offsets with limits 0, 1, 100 and 10000, and requires each
// served body to equal the oracle's. It returns the served bodies by query.
func checkExtracts(t *testing.T, r *rand.Rand, d *workloadDeployment, step string) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	for _, f := range extractFilters(r, d.st) {
		_, total := oracleExtract(t, d.st, f)
		for _, off := range []int{0, total / 2, max(total-1, 0), total, total + 7} {
			for _, lim := range []int{0, 1, 100, 10000} {
				q := url.Values{"offset": {strconv.Itoa(off)}, "limit": {strconv.Itoa(lim)}}
				for k, v := range f {
					q[k] = v
				}
				want, _ := oracleExtract(t, d.st, q)
				got := d.extract(t, q)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: extract %s\n got  %s\n want %s", step, q.Encode(), got, want)
				}
				bodies[q.Encode()] = got
			}
		}
	}
	return bodies
}

func TestExtractMatchesSortedOracle(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		r := rand.New(rand.NewSource(seed))
		d := deployWorkload(t, seed, 30)
		checkExtracts(t, r, d, "initial")

		// Every operation at least once, then a random tail.
		ops := []string{"mutate", "delta", "mutate", "full", "restart"}
		for i := 0; i < 10; i++ {
			ops = append(ops, []string{"mutate", "mutate", "delta", "full", "restart"}[r.Intn(5)])
		}
		for i, op := range ops {
			step := "seed " + strconv.FormatInt(seed, 10) + " step " + strconv.Itoa(i) + " " + op
			switch op {
			case "mutate":
				if err := workload.Apply(d.contribs, workload.RandomBatch(d.contribs, r.Int63(), 12)); err != nil {
					t.Fatal(err)
				}
			case "delta":
				if _, err := d.srv.refresh(context.Background(), d.st, etl.DeltaRefresh, "test"); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			case "full":
				if _, err := d.srv.refresh(context.Background(), d.st, etl.FullRefresh, "test"); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			case "restart":
				// The same queries must render the same bytes after recovery.
				before := checkExtracts(t, r, d, step+" (before)")
				d.start(t)
				if got := d.srv.metrics().Counter("serve.snapshot.recovered").Value(); got != 1 {
					t.Fatalf("%s: serve.snapshot.recovered = %d, want 1", step, got)
				}
				for q, want := range before {
					params, _ := url.ParseQuery(q)
					if got := d.extract(t, params); !bytes.Equal(got, want) {
						t.Fatalf("%s: extract %s changed across restart\n got  %s\n want %s", step, q, got, want)
					}
				}
			}
			checkExtracts(t, r, d, step)
		}
	}
}
