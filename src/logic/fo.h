#ifndef SWS_LOGIC_FO_H_
#define SWS_LOGIC_FO_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/cq.h"
#include "logic/term.h"
#include "relational/database.h"

namespace sws::logic {

/// A first-order formula over relational atoms and (in)equality, with the
/// usual connectives and quantifiers. FO is the query language of
/// SWS(FO, FO), which captures the data-driven transducer models of
/// [Abiteboul et al.; Deutsch–Sui–Vianu; Spielmann] (Section 3).
///
/// Evaluation uses active-domain semantics: quantifiers range over the
/// values occurring in the database plus the constants of the formula —
/// the standard finite-model reading used by the transducer literature.
class FoFormula {
 public:
  enum class Kind { kAtom, kEq, kNot, kAnd, kOr, kExists, kForall };

  /// Default-constructed formula is "false" (empty disjunction).
  FoFormula();

  static FoFormula MakeAtom(std::string relation, std::vector<Term> args);
  static FoFormula Eq(Term lhs, Term rhs);
  static FoFormula Neq(Term lhs, Term rhs) { return Not(Eq(lhs, rhs)); }
  static FoFormula Not(FoFormula f);
  static FoFormula And(std::vector<FoFormula> fs);
  static FoFormula Or(std::vector<FoFormula> fs);
  static FoFormula And(FoFormula a, FoFormula b);
  static FoFormula Or(FoFormula a, FoFormula b);
  static FoFormula Implies(FoFormula a, FoFormula b);
  static FoFormula Exists(int var, FoFormula body);
  static FoFormula Exists(const std::vector<int>& vars, FoFormula body);
  static FoFormula Forall(int var, FoFormula body);
  static FoFormula Forall(const std::vector<int>& vars, FoFormula body);
  static FoFormula True();
  static FoFormula False();

  Kind kind() const;
  /// kAtom accessors.
  const std::string& relation() const;
  const std::vector<Term>& args() const;
  /// kEq accessors: args()[0], args()[1] are the two sides.
  /// kNot/kAnd/kOr children; kExists/kForall single child.
  const std::vector<FoFormula>& children() const;
  /// kExists/kForall bound variable.
  int bound_var() const;

  /// Evaluates under a binding of free variables over the given active
  /// domain. All free variables must be bound.
  bool Eval(const rel::Database& db, const std::set<rel::Value>& domain,
            const Binding& binding) const;

  /// Reusable per-evaluation state for repeated EvalMutable calls over
  /// one fixed database (FoQuery::EvaluateNaive invokes the formula once
  /// per head-variable assignment — O(|adom|^k) times). Caches each atom
  /// node's resolved relation so the inner loop skips the two
  /// string-keyed database lookups per atom, and reuses one probe-tuple
  /// buffer instead of allocating per atom evaluation. Must not outlive
  /// the database it was first used with.
  struct EvalContext {
    std::unordered_map<const void*, const rel::Relation*> atom_relations;
    rel::Tuple probe;
  };

  /// As above, but extends `binding` in place while walking quantifiers
  /// (saving and restoring shadowed entries) instead of copying the map
  /// at every quantifier node; `binding` is unchanged on return. This is
  /// the hot path — Eval copies once and delegates here. (A separate
  /// name, not an overload: `Eval(db, domain, {})` must keep meaning an
  /// empty binding, not a null pointer.) Pass the same `ctx` across
  /// calls against one database to amortize atom-relation resolution.
  bool EvalMutable(const rel::Database& db,
                   const std::set<rel::Value>& domain, Binding* binding,
                   EvalContext* ctx = nullptr) const;

  /// Free variables of the formula.
  std::set<int> FreeVars() const;
  /// All constants occurring in the formula.
  std::set<rel::Value> Constants() const;
  /// Relation name → arity for every atom (aborts on inconsistent use).
  std::map<std::string, size_t> RelationArities() const;

  size_t Size() const;

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

 private:
  struct Node;
  explicit FoFormula(std::shared_ptr<const Node> node);
  std::shared_ptr<const Node> node_;
};

/// Database-independent lowering of a safe-range FO query onto the join
/// bytecode (defined in fo.cc; see FoQuery).
struct FoPlan;

/// An FO query: a formula with an ordered tuple of free head variables
/// (variables may repeat; constants are allowed as head terms).
///
/// Evaluation has two paths, chosen by the formula alone. A safe-range
/// query (Abiteboul–Hull–Vianu, Foundations of Databases, ch. 5) is
/// domain-independent, so it is lowered once, at construction, into a
/// union of conjunctive bodies that run on the join bytecode (Codd's
/// theorem made operational; DESIGN.md §12). Each body, filters' bodies
/// included, is compiled then too; an evaluation only binds them to its
/// database, so one query may be evaluated from many threads at once. Every other query runs on
/// the active-domain interpreter, which is also the differential oracle.
class FoQuery {
 public:
  FoQuery() = default;
  FoQuery(std::vector<Term> head, FoFormula formula);

  const std::vector<Term>& head() const { return head_; }
  const FoFormula& formula() const { return formula_; }
  size_t head_arity() const { return head_.size(); }

  /// Head variables must be free in the formula or constants; every free
  /// variable of the formula must occur in the head (domain-independent
  /// presentation: non-head variables must be quantified).
  std::optional<std::string> Validate() const;

  /// Active-domain evaluation: head variables range over adom(db) plus the
  /// query's constants. Compiled when safe-range, interpreted otherwise.
  rel::Relation Evaluate(const rel::Database& db) const;

  /// True iff Evaluate(db) is nonempty. The compiled path stops at the
  /// first match.
  bool EvaluatesNonempty(const rel::Database& db) const;

  /// The active-domain interpreter: enumerates head assignments and
  /// quantifiers over adom(db) plus the query's constants. Exponential in
  /// the head arity and quantifier depth; kept for non-safe-range queries
  /// and as the differential oracle for the compiled path.
  rel::Relation EvaluateNaive(const rel::Database& db) const;

  /// True iff the query is safe-range and Evaluate runs compiled.
  bool compiled() const { return plan_ != nullptr; }

  /// Converts a CQ (with = and ≠) to an equivalent FO query.
  static FoQuery FromCq(const ConjunctiveQuery& cq);

  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;

 private:
  std::vector<Term> head_;
  FoFormula formula_;
  std::shared_ptr<const FoPlan> plan_;  // null: interpret
  size_t num_branches_ = 0;  // branches in plan_'s tree, filters included
};

/// Result of a bounded-model satisfiability search.
struct FoBoundedSatResult {
  bool found = false;
  rel::Database witness;       // valid iff found
  uint64_t databases_checked = 0;
};

/// Searches for a finite model of the FO *sentence* over domains
/// {1, ..., k} for k = 1..max_domain_size. FO satisfiability is
/// undecidable (Trakhtenbrot / [1]); this bounded search is the
/// semi-decision procedure referenced by Theorem 4.1(1): the reduction
/// from FO satisfiability makes all SWS(FO, FO) analyses undecidable, and
/// only bounded variants are implementable.
FoBoundedSatResult FoBoundedSat(const FoFormula& sentence,
                                size_t max_domain_size,
                                uint64_t max_databases = UINT64_MAX);

}  // namespace sws::logic

#endif  // SWS_LOGIC_FO_H_
