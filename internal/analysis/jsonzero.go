package analysis

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// Jsonzero flags `omitempty` on numeric and bool fields of exported
// structs with JSON tags. For those kinds Go's encoder drops the zero
// value, so a client cannot distinguish "instance 0, start cycle 0,
// zero failures" from "field absent" — the exact bug class once fixed
// in serve.Record placement fields and again in the fleet controller's
// fleet.ElasticDecision / ElasticStatus. Strings, pointers, slices and
// maps are exempt: their empty value genuinely means "absent" in this
// codebase (and a pointer is the sanctioned way to express an
// optional number, as http's arrival_cycle does).
//
// Fields whose zero value is a true "unset" sentinel on an input
// struct (a request's optional SLA, a fault event's unused factor)
// are justified site-by-site with //herald:jsonzero <reason>.
var Jsonzero = &Analyzer{
	Name: "jsonzero",
	Doc:  "flags omitempty on numeric/bool JSON fields of exported structs, where zero is indistinguishable from absent",
	Run:  runJsonzero,
}

func runJsonzero(pass *Pass) {
	CheckDirectives(pass, "jsonzero")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				checkJSONField(pass, ts.Name.Name, field)
			}
			return true
		})
	}
}

// checkJSONField reports one struct field if it is an exported
// numeric/bool field tagged json:"...,omitempty".
func checkJSONField(pass *Pass, structName string, field *ast.Field) {
	if field.Tag == nil || len(field.Names) == 0 {
		return
	}
	raw, err := reflectStructTag(field.Tag.Value)
	if err {
		return
	}
	jsonTag, ok := raw.Lookup("json")
	if !ok {
		return
	}
	parts := strings.Split(jsonTag, ",")
	if parts[0] == "-" && len(parts) == 1 {
		return
	}
	omitempty := false
	for _, opt := range parts[1:] {
		if opt == "omitempty" {
			omitempty = true
		}
	}
	if !omitempty || !zeroMeaningfulType(pass, field.Type) {
		return
	}
	for _, name := range field.Names {
		if !name.IsExported() {
			continue
		}
		if pass.Suppressed("jsonzero", name.Pos()) {
			continue
		}
		pass.Reportf(name.Pos(), "omitempty on %s.%s (%s) drops the zero value from JSON, making 0 indistinguishable from absent: drop omitempty, use a pointer for optional, or justify with //herald:jsonzero <reason>",
			structName, name.Name, typeString(pass, field.Type))
	}
}

// reflectStructTag parses a raw backtick/quoted struct tag literal.
func reflectStructTag(lit string) (reflect.StructTag, bool) {
	if len(lit) < 2 {
		return "", true
	}
	return reflect.StructTag(lit[1 : len(lit)-1]), false
}

// zeroMeaningfulType reports whether the field type is a kind whose
// zero value carries meaning under omitempty: numeric or bool
// (possibly via a named type like time.Duration).
func zeroMeaningfulType(pass *Pass, t ast.Expr) bool {
	tv, ok := pass.Info.Types[t]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&(types.IsNumeric|types.IsBoolean) != 0
}

// typeString renders the field type for diagnostics.
func typeString(pass *Pass, t ast.Expr) string {
	if tv, ok := pass.Info.Types[t]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return exprString(t)
}
