package analysis

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
)

// The directive taxonomy. Suppressions silence one analyzer's finding
// at one line and must carry a justification; they go stale when no
// analyzer consults them any more. The hotpath marker changes what is
// checked rather than silencing a check: it opts a function into the
// allocation analyzers (it is a contract, not an excuse, and carries
// no reason), so the audit leaves it out.
var suppressionVerbs = map[string]string{
	"nondet-ok": "detmap, detsource",
	"alloc-ok":  "hotpathalloc, hotpathtrans",
	"retain-ok": "arenaref",
	"lock-ok":   "lockguard",
	"ctx-ok":    "ctxflow",
	"err-ok":    "errflow",
}

// DirectiveRecord is one //costsense: annotation in the audited tree,
// as emitted by `costsense-vet -audit`.
type DirectiveRecord struct {
	File string `json:"file"` // module-relative, slash-separated
	Line int    `json:"line"`
	Verb string `json:"verb"`
	// Kind is "suppression"; unknown verbs get "unknown" and always
	// count as problems.
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
	// Suppresses names the analyzers the verb silences (suppressions
	// only).
	Suppresses string `json:"suppresses,omitempty"`
	// Stale is set on a suppression no analyzer consulted during the
	// run: the finding it once silenced is gone and the directive
	// should be deleted with it.
	Stale bool `json:"stale,omitempty"`
	// Unjustified is set on a suppression with no reason text.
	Unjustified bool `json:"unjustified,omitempty"`
}

// AuditReport is the complete, deterministic directive inventory.
type AuditReport struct {
	Module     string            `json:"module"`
	Directives []DirectiveRecord `json:"directives"`
	// ByVerb counts the inventory per verb (encoding/json emits map
	// keys sorted, so the report stays byte-stable).
	ByVerb      map[string]int `json:"by_verb"`
	Stale       int            `json:"stale"`
	Unjustified int            `json:"unjustified"`
	Unknown     int            `json:"unknown"`
}

// Problems reports whether the audit should fail the gate.
func (r *AuditReport) Problems() bool {
	return r.Stale > 0 || r.Unjustified > 0 || r.Unknown > 0
}

// BuildAudit inventories every //costsense: directive in pkgs (hotpath
// markers excluded: they are contract annotations inventoried by the
// analyzers themselves, with no justification to audit) and marks
// stale and unjustified entries. tr must come from the Check run over
// the same packages — staleness is "no analyzer consulted this
// suppression during that run".
func BuildAudit(l *Loader, pkgs []*Package, tr *Tracker) *AuditReport {
	report := &AuditReport{Module: l.ModulePath, ByVerb: make(map[string]int)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, rec := range fileDirectives(l, pkg, f) {
				if rec.Verb == "hotpath" {
					continue
				}
				if _, ok := suppressionVerbs[rec.Verb]; ok {
					rec.Kind = "suppression"
					rec.Suppresses = suppressionVerbs[rec.Verb]
					rec.Stale = !tr.Used(absFile(l, rec.File), rec.Line, rec.Verb)
					rec.Unjustified = rec.Reason == ""
				} else {
					rec.Kind = "unknown"
					report.Unknown++
				}
				if rec.Stale {
					report.Stale++
				}
				if rec.Unjustified {
					report.Unjustified++
				}
				report.ByVerb[rec.Verb]++
				report.Directives = append(report.Directives, rec)
			}
		}
	}
	sort.Slice(report.Directives, func(i, j int) bool {
		a, b := report.Directives[i], report.Directives[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Verb < b.Verb
	})
	return report
}

// fileDirectives parses the //costsense: comments of one file into
// records with module-relative paths.
func fileDirectives(l *Loader, pkg *Package, f *ast.File) []DirectiveRecord {
	var recs []DirectiveRecord
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, Directive)
			if !ok {
				continue
			}
			verb, reason, _ := strings.Cut(rest, " ")
			pos := pkg.Fset.Position(c.Pos())
			rel, err := filepath.Rel(l.ModuleDir, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			recs = append(recs, DirectiveRecord{
				File:   filepath.ToSlash(rel),
				Line:   pos.Line,
				Verb:   verb,
				Reason: strings.TrimSpace(reason),
			})
		}
	}
	return recs
}

// absFile undoes fileDirectives' module-relative mapping for tracker
// lookups, which key on the FileSet's absolute filenames.
func absFile(l *Loader, rel string) string {
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}
