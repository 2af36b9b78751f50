// Package textsrc opens the free-text data modality the paper's model
// leaves out: a contributor whose source is semi-structured report text
// rather than a form-backed database. EndoExtract (PAPERS.md) observes
// that clinical reports carry a stable field structure — section headers,
// "field: value" lines, enumerated findings — so a co-designed extractor
// can map them onto a schema. Here that co-design is an ExtractSpec: a
// declarative description of the report structure that compiles both ways,
// into a ui.Form (so gtree.Derive, pattern stacks, classifiers, delta
// refresh, and studyd serve text-derived data unchanged) and into a
// deterministic extractor (anchored matchers, controlled vocabularies,
// unit normalization — pure string scanning, no regular expressions).
//
// Extraction is total but not infallible: a report can omit a required
// field, carry an out-of-vocabulary value, or repeat a section ambiguously.
// Those misses never drop silently — Layout.Read reports each one to the
// stack's miss sink with span provenance (report id + byte range + rule
// id) so the ETL layer dead-letters it into the row-level quarantine under
// the run budget.
package textsrc

import (
	"fmt"
	"sort"
	"strings"

	"guava/internal/relstore"
	"guava/internal/ui"
)

// MatcherKind enumerates the anchored matchers a field can use inside its
// section.
type MatcherKind uint8

const (
	// KeyValue matches one "Label: value" line and parses the value.
	KeyValue MatcherKind = iota
	// Enumeration matches the presence of one "- term" finding line; the
	// field is boolean and an absent line means false.
	Enumeration
)

// String returns the matcher kind name.
func (k MatcherKind) String() string {
	switch k {
	case KeyValue:
		return "key-value"
	case Enumeration:
		return "enumeration"
	default:
		return fmt.Sprintf("MatcherKind(%d)", uint8(k))
	}
}

// VocabEntry maps one controlled-vocabulary phrase as dictated in report
// text to the value stored in the naive schema.
type VocabEntry struct {
	// Text is the phrase as it appears after the label in the report.
	Text string
	// Stored is the naive-schema value the phrase maps to.
	Stored relstore.Value
}

// UnitSpec normalizes a dictated "<number> <unit>" quantity into a single
// canonical unit. Factors maps each accepted unit name to its multiplier
// into the canonical unit; the canonical unit itself must map to 1.
type UnitSpec struct {
	// Canonical is the unit rendered on output and implied by the schema.
	Canonical string
	// Factors maps accepted unit names to canonical-unit multipliers.
	Factors map[string]float64
}

// FieldSpec is one field rule: where the value anchors inside its section
// and how its text maps to a typed value.
type FieldSpec struct {
	// Name is the naive-schema column (and g-tree slot) the field fills.
	Name string
	// Matcher selects the anchored rule kind.
	Matcher MatcherKind
	// Label is the anchor text: the "Label:" prefix for KeyValue fields,
	// the "- term" finding text for Enumeration fields.
	Label string
	// Question optionally carries the derived control's wording; Label is
	// used when empty.
	Question string
	// Kind is the stored type. Enumeration fields are always KindBool.
	Kind relstore.Kind
	// Required marks KeyValue fields whose absence is an extraction miss.
	Required bool
	// Vocab, when non-empty, restricts the value to a controlled
	// vocabulary (KeyValue only); unlisted text is an extraction miss.
	Vocab []VocabEntry
	// Unit, when set, normalizes a dictated quantity (KeyValue, KindFloat).
	Unit *UnitSpec
}

// SectionSpec is one report section: an anchored "== HEADING ==" header
// line and the field rules that match inside it.
type SectionSpec struct {
	// Heading is the section header text (without the "==" fencing).
	Heading string
	// Fields are the rules anchored inside this section.
	Fields []FieldSpec
}

// ExtractSpec is the co-designed description of one report family. It
// derives the contributor's ui.Form (and through it the g-tree and naive
// schema) and compiles into the deterministic extractor.
type ExtractSpec struct {
	// Name is the form name (and the g-tree form node).
	Name string
	// Title is the human-facing report title.
	Title string
	// Key names the synthetic report-instance key column.
	Key string
	// Sections describe the report body in order.
	Sections []SectionSpec
}

// Validate checks structural invariants: non-empty name/key/headings/labels,
// per-field matcher consistency (vocabulary typing, unit factors, enumeration
// booleans), and at least one field per section. Matcher overlap — the
// ambiguity class GV311 vets — is checked separately by Overlaps.
func (s *ExtractSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("textsrc: spec with empty name")
	}
	if s.Key == "" {
		return fmt.Errorf("textsrc: spec %s has no key column", s.Name)
	}
	if len(s.Sections) == 0 {
		return fmt.Errorf("textsrc: spec %s has no sections", s.Name)
	}
	names := map[string]bool{s.Key: true}
	for _, sec := range s.Sections {
		if sec.Heading == "" {
			return fmt.Errorf("textsrc: spec %s has a section with empty heading", s.Name)
		}
		if strings.ContainsAny(sec.Heading, "\n=") {
			return fmt.Errorf("textsrc: spec %s: heading %q contains newline or '='", s.Name, sec.Heading)
		}
		if len(sec.Fields) == 0 {
			return fmt.Errorf("textsrc: spec %s: section %s has no fields", s.Name, sec.Heading)
		}
		for _, f := range sec.Fields {
			if err := s.validateField(sec, f, names); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *ExtractSpec) validateField(sec SectionSpec, f FieldSpec, names map[string]bool) error {
	where := fmt.Sprintf("textsrc: spec %s: section %s: field %s", s.Name, sec.Heading, f.Name)
	if f.Name == "" {
		return fmt.Errorf("textsrc: spec %s: section %s has a field with empty name", s.Name, sec.Heading)
	}
	if names[f.Name] {
		return fmt.Errorf("%s: duplicate field name", where)
	}
	names[f.Name] = true
	if f.Label == "" {
		return fmt.Errorf("%s: empty label", where)
	}
	if strings.ContainsRune(f.Label, '\n') {
		return fmt.Errorf("%s: label contains newline", where)
	}
	switch f.Matcher {
	case Enumeration:
		if f.Kind != relstore.KindBool && f.Kind != relstore.KindNull {
			return fmt.Errorf("%s: enumeration fields are boolean, not %s", where, f.Kind)
		}
		if f.Required {
			return fmt.Errorf("%s: enumeration fields cannot be required (absence means false)", where)
		}
		if len(f.Vocab) > 0 || f.Unit != nil {
			return fmt.Errorf("%s: enumeration fields take no vocabulary or unit", where)
		}
	case KeyValue:
		if strings.ContainsRune(f.Label, ':') {
			return fmt.Errorf("%s: key-value label contains ':'", where)
		}
		if len(f.Vocab) > 0 && f.Unit != nil {
			return fmt.Errorf("%s: vocabulary and unit are mutually exclusive", where)
		}
		if err := s.validateVocab(where, f); err != nil {
			return err
		}
		if f.Unit != nil {
			if f.Kind != relstore.KindFloat {
				return fmt.Errorf("%s: unit normalization requires a REAL field, not %s", where, f.Kind)
			}
			if f.Unit.Canonical == "" {
				return fmt.Errorf("%s: unit spec has no canonical unit", where)
			}
			if got, ok := f.Unit.Factors[f.Unit.Canonical]; !ok || got != 1 {
				return fmt.Errorf("%s: canonical unit %q must map to factor 1", where, f.Unit.Canonical)
			}
			for u, factor := range f.Unit.Factors {
				if u == "" || factor <= 0 {
					return fmt.Errorf("%s: unit %q has non-positive factor %v", where, u, factor)
				}
			}
		}
		switch s.fieldKind(f) {
		case relstore.KindInt, relstore.KindFloat, relstore.KindString, relstore.KindBool:
		default:
			return fmt.Errorf("%s: unsupported kind %s", where, f.Kind)
		}
	default:
		return fmt.Errorf("%s: unknown matcher %v", where, f.Matcher)
	}
	return nil
}

func (s *ExtractSpec) validateVocab(where string, f FieldSpec) error {
	texts := make(map[string]bool, len(f.Vocab))
	stored := make(map[string]bool, len(f.Vocab))
	for _, v := range f.Vocab {
		if v.Text == "" || strings.ContainsRune(v.Text, '\n') {
			return fmt.Errorf("%s: vocabulary phrase %q is empty or multi-line", where, v.Text)
		}
		if texts[v.Text] {
			return fmt.Errorf("%s: vocabulary phrase %q listed twice", where, v.Text)
		}
		texts[v.Text] = true
		if v.Stored.IsNull() {
			return fmt.Errorf("%s: vocabulary phrase %q stores NULL", where, v.Text)
		}
		if stored[v.Stored.Key()] {
			// Rendering inverts the mapping, so stored values must be
			// distinct too.
			return fmt.Errorf("%s: stored value %s mapped from two phrases", where, v.Stored)
		}
		stored[v.Stored.Key()] = true
		if v.Stored.Kind() != s.fieldKind(f) {
			return fmt.Errorf("%s: vocabulary phrase %q stores %s, field is %s", where, v.Text, v.Stored.Kind(), s.fieldKind(f))
		}
	}
	return nil
}

// FieldKind resolves a field's stored kind for external checkers (guavavet
// compares it against the target g-tree slot's DataType for GV310).
func (s *ExtractSpec) FieldKind(f FieldSpec) relstore.Kind { return s.fieldKind(f) }

// fieldKind resolves a field's stored kind: enumeration fields are boolean,
// unspecified key-value fields default to string.
func (s *ExtractSpec) fieldKind(f FieldSpec) relstore.Kind {
	if f.Matcher == Enumeration {
		return relstore.KindBool
	}
	if f.Kind == relstore.KindNull {
		return relstore.KindString
	}
	return f.Kind
}

// Overlaps lists matcher ambiguities: duplicate section headings, duplicate
// key-value labels within a section, and duplicate enumeration terms within
// a section. Each makes two rules claim the same anchored line, so a report
// satisfying one rule is indistinguishable from one satisfying the other.
// Compile refuses specs with overlaps; guavavet reports them as GV311.
func (s *ExtractSpec) Overlaps() []string {
	var out []string
	headings := make(map[string]bool, len(s.Sections))
	for _, sec := range s.Sections {
		if headings[sec.Heading] {
			out = append(out, fmt.Sprintf("section heading %q declared twice", sec.Heading))
		}
		headings[sec.Heading] = true
		kv := make(map[string][]string)
		enum := make(map[string][]string)
		for _, f := range sec.Fields {
			switch f.Matcher {
			case Enumeration:
				enum[f.Label] = append(enum[f.Label], f.Name)
			default:
				kv[f.Label] = append(kv[f.Label], f.Name)
			}
		}
		for _, m := range []map[string][]string{kv, enum} {
			labels := make([]string, 0, len(m))
			for l := range m {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				if fields := m[l]; len(fields) > 1 {
					out = append(out, fmt.Sprintf("section %s: fields %s share anchor %q",
						sec.Heading, strings.Join(fields, ", "), l))
				}
			}
		}
	}
	return out
}

// Form derives the contributor's ui.Form: one group box per section, one
// control per field — drop-downs for vocabularies, check boxes for
// enumerations, text boxes otherwise. The derived form validates and feeds
// gtree.Derive exactly like a hand-built reporting-tool screen, which is
// what lets every downstream layer treat text as just another contributor.
func (s *ExtractSpec) Form() (*ui.Form, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f := &ui.Form{Name: s.Name, Title: s.Title, KeyColumn: s.Key}
	for _, sec := range s.Sections {
		g := &ui.Control{Name: "Sec" + identFor(sec.Heading), Kind: ui.GroupBox, Question: sec.Heading}
		for _, fld := range sec.Fields {
			g.Children = append(g.Children, s.control(fld))
		}
		f.Controls = append(f.Controls, g)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("textsrc: spec %s derives invalid form: %w", s.Name, err)
	}
	return f, nil
}

func (s *ExtractSpec) control(f FieldSpec) *ui.Control {
	q := f.Question
	if q == "" {
		q = f.Label
	}
	c := &ui.Control{Name: f.Name, Question: q, Required: f.Required}
	switch {
	case f.Matcher == Enumeration:
		c.Kind = ui.CheckBox
	case len(f.Vocab) > 0:
		c.Kind = ui.DropDown
		for _, v := range f.Vocab {
			c.Options = append(c.Options, ui.Option{Display: v.Text, Stored: v.Stored})
		}
	default:
		c.Kind = ui.TextBox
		c.DataType = s.fieldKind(f)
	}
	return c
}

// identFor compresses arbitrary heading text into a control-name suffix:
// letters and digits survive, everything else drops.
func identFor(heading string) string {
	var sb strings.Builder
	for _, r := range heading {
		if r == ' ' || r == '-' || r == '_' {
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// Fields iterates every field rule with its section, in declaration order.
func (s *ExtractSpec) Fields(fn func(sec SectionSpec, f FieldSpec)) {
	for _, sec := range s.Sections {
		for _, f := range sec.Fields {
			fn(sec, f)
		}
	}
}

// RuleID names one field rule for provenance: "<spec>/<section>/<field>".
func (s *ExtractSpec) RuleID(sec SectionSpec, f FieldSpec) string {
	return s.Name + "/" + sec.Heading + "/" + f.Name
}
