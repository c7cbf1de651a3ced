#include "logic/fo.h"

#include <algorithm>
#include <sstream>

#include "logic/bytecode.h"
#include "util/cancellation.h"
#include "util/common.h"

namespace sws::logic {

struct FoFormula::Node {
  Kind kind;
  std::string relation;          // kAtom
  std::vector<Term> args;        // kAtom (n-ary) and kEq (two terms)
  std::vector<FoFormula> children;
  int bound_var = -1;            // kExists/kForall
};

FoFormula::FoFormula(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

FoFormula::FoFormula() { *this = False(); }

FoFormula FoFormula::MakeAtom(std::string relation, std::vector<Term> args) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAtom;
  node->relation = std::move(relation);
  node->args = std::move(args);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Eq(Term lhs, Term rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kEq;
  node->args = {std::move(lhs), std::move(rhs)};
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Not(FoFormula f) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->children.push_back(std::move(f));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::And(std::vector<FoFormula> fs) {
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->children = std::move(fs);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Or(std::vector<FoFormula> fs) {
  if (fs.size() == 1) return fs[0];
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->children = std::move(fs);
  return FoFormula(std::move(node));
}

FoFormula FoFormula::And(FoFormula a, FoFormula b) {
  return And(std::vector<FoFormula>{std::move(a), std::move(b)});
}

FoFormula FoFormula::Or(FoFormula a, FoFormula b) {
  return Or(std::vector<FoFormula>{std::move(a), std::move(b)});
}

FoFormula FoFormula::Implies(FoFormula a, FoFormula b) {
  return Or(Not(std::move(a)), std::move(b));
}

FoFormula FoFormula::Exists(int var, FoFormula body) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kExists;
  node->bound_var = var;
  node->children.push_back(std::move(body));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Exists(const std::vector<int>& vars, FoFormula body) {
  FoFormula f = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    f = Exists(*it, std::move(f));
  }
  return f;
}

FoFormula FoFormula::Forall(int var, FoFormula body) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kForall;
  node->bound_var = var;
  node->children.push_back(std::move(body));
  return FoFormula(std::move(node));
}

FoFormula FoFormula::Forall(const std::vector<int>& vars, FoFormula body) {
  FoFormula f = std::move(body);
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    f = Forall(*it, std::move(f));
  }
  return f;
}

FoFormula FoFormula::True() { return And(std::vector<FoFormula>{}); }
FoFormula FoFormula::False() { return Or(std::vector<FoFormula>{}); }

FoFormula::Kind FoFormula::kind() const { return node_->kind; }

const std::string& FoFormula::relation() const {
  SWS_CHECK(node_->kind == Kind::kAtom);
  return node_->relation;
}

const std::vector<Term>& FoFormula::args() const { return node_->args; }

const std::vector<FoFormula>& FoFormula::children() const {
  return node_->children;
}

int FoFormula::bound_var() const {
  SWS_CHECK(node_->kind == Kind::kExists || node_->kind == Kind::kForall);
  return node_->bound_var;
}

bool FoFormula::Eval(const rel::Database& db,
                     const std::set<rel::Value>& domain,
                     const Binding& binding) const {
  Binding scratch = binding;  // single copy; quantifiers mutate in place
  return EvalMutable(db, domain, &scratch);
}

bool FoFormula::EvalMutable(const rel::Database& db,
                            const std::set<rel::Value>& domain,
                            Binding* binding, EvalContext* ctx) const {
  switch (node_->kind) {
    case Kind::kAtom: {
      // Resolve the atom's relation: through the per-evaluation cache
      // when the caller supplies one (two string-keyed map lookups per
      // atom evaluation otherwise — the dominant cost of quantifier
      // sweeps), directly against the database when not. nullptr in the
      // cache records "absent or arity mismatch": the atom is false.
      const rel::Relation* rel = nullptr;
      if (ctx != nullptr) {
        auto [it, inserted] =
            ctx->atom_relations.try_emplace(node_.get(), nullptr);
        if (inserted && db.Contains(node_->relation)) {
          const rel::Relation& r = db.Get(node_->relation);
          if (r.arity() == node_->args.size()) it->second = &r;
        }
        rel = it->second;
      } else if (db.Contains(node_->relation)) {
        const rel::Relation& r = db.Get(node_->relation);
        if (r.arity() == node_->args.size()) rel = &r;
      }
      if (rel == nullptr) return false;
      rel::Tuple local;
      rel::Tuple& t = ctx != nullptr ? ctx->probe : local;
      t.clear();
      t.reserve(node_->args.size());
      for (const Term& term : node_->args) {
        auto v = ResolveTerm(term, *binding);
        SWS_CHECK(v.has_value()) << "unbound variable " << term.ToString()
                                 << " in FO atom";
        t.push_back(*v);
      }
      return rel->Contains(t);
    }
    case Kind::kEq: {
      auto l = ResolveTerm(node_->args[0], *binding);
      auto r = ResolveTerm(node_->args[1], *binding);
      SWS_CHECK(l.has_value() && r.has_value()) << "unbound variable in '='";
      return *l == *r;
    }
    case Kind::kNot:
      return !node_->children[0].EvalMutable(db, domain, binding, ctx);
    case Kind::kAnd:
      for (const auto& c : node_->children) {
        if (!c.EvalMutable(db, domain, binding, ctx)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : node_->children) {
        if (c.EvalMutable(db, domain, binding, ctx)) return true;
      }
      return false;
    case Kind::kExists:
    case Kind::kForall: {
      const bool is_exists = node_->kind == Kind::kExists;
      // The quantifier may shadow an outer binding of the same variable:
      // save it and restore on exit (including early exit).
      std::optional<rel::Value> saved;
      if (auto it = binding->find(node_->bound_var); it != binding->end()) {
        saved = it->second;
      }
      bool result = !is_exists;
      for (const rel::Value& v : domain) {
        // Cooperative cancellation inside the quantifier sweep — the
        // O(|adom|^depth) alternation is the paper's intractable core.
        // The gate is sticky, so every enclosing quantifier also stops
        // at its next tick and the unwind costs O(depth); the governed
        // caller discards the (meaningless) boolean.
        if (!sws::util::StepTick()) break;
        (*binding)[node_->bound_var] = v;
        if (node_->children[0].EvalMutable(db, domain, binding, ctx) ==
            is_exists) {
          result = is_exists;  // witness / counterexample: short-circuit
          break;
        }
      }
      if (saved.has_value()) {
        (*binding)[node_->bound_var] = *std::move(saved);
      } else {
        binding->erase(node_->bound_var);
      }
      return result;
    }
  }
  return false;
}

namespace {

void CollectFreeVars(const FoFormula& f, std::set<int>* bound,
                     std::set<int>* free) {
  using Kind = FoFormula::Kind;
  switch (f.kind()) {
    case Kind::kAtom:
    case Kind::kEq:
      for (const Term& t : f.args()) {
        if (t.is_var() && bound->count(t.var()) == 0) free->insert(t.var());
      }
      return;
    case Kind::kExists:
    case Kind::kForall: {
      bool was_bound = bound->count(f.bound_var()) > 0;
      bound->insert(f.bound_var());
      CollectFreeVars(f.children()[0], bound, free);
      if (!was_bound) bound->erase(f.bound_var());
      return;
    }
    default:
      for (const auto& c : f.children()) CollectFreeVars(c, bound, free);
  }
}

void CollectConstants(const FoFormula& f, std::set<rel::Value>* out) {
  for (const Term& t : f.args()) {
    if (t.is_const()) out->insert(t.value());
  }
  for (const auto& c : f.children()) CollectConstants(c, out);
}

void CollectArities(const FoFormula& f, std::map<std::string, size_t>* out) {
  if (f.kind() == FoFormula::Kind::kAtom) {
    auto [it, inserted] = out->emplace(f.relation(), f.args().size());
    SWS_CHECK(inserted || it->second == f.args().size())
        << "relation " << f.relation() << " used with inconsistent arities";
  }
  for (const auto& c : f.children()) CollectArities(c, out);
}

}  // namespace

std::set<int> FoFormula::FreeVars() const {
  std::set<int> bound, free;
  CollectFreeVars(*this, &bound, &free);
  return free;
}

std::set<rel::Value> FoFormula::Constants() const {
  std::set<rel::Value> out;
  CollectConstants(*this, &out);
  return out;
}

std::map<std::string, size_t> FoFormula::RelationArities() const {
  std::map<std::string, size_t> out;
  CollectArities(*this, &out);
  return out;
}

size_t FoFormula::Size() const {
  size_t n = 1;
  for (const auto& c : node_->children) n += c.Size();
  return n;
}

std::string FoFormula::ToString(
    const std::function<std::string(int)>& name) const {
  auto var_name = [&name](int v) {
    return name ? name(v) : "X" + std::to_string(v);
  };
  switch (node_->kind) {
    case Kind::kAtom: {
      std::ostringstream out;
      out << node_->relation << "(";
      for (size_t i = 0; i < node_->args.size(); ++i) {
        if (i > 0) out << ", ";
        out << node_->args[i].ToString(name);
      }
      out << ")";
      return out.str();
    }
    case Kind::kEq:
      return node_->args[0].ToString(name) + " = " +
             node_->args[1].ToString(name);
    case Kind::kNot:
      return "!" + node_->children[0].ToString(name);
    case Kind::kAnd:
    case Kind::kOr: {
      if (node_->children.empty()) {
        return node_->kind == Kind::kAnd ? "true" : "false";
      }
      std::ostringstream out;
      out << "(";
      const char* sep = node_->kind == Kind::kAnd ? " & " : " | ";
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out << sep;
        out << node_->children[i].ToString(name);
      }
      out << ")";
      return out.str();
    }
    case Kind::kExists:
    case Kind::kForall:
      return std::string(node_->kind == Kind::kExists ? "E" : "A") +
             var_name(node_->bound_var) + "." +
             node_->children[0].ToString(name);
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Safe-range lowering onto the join bytecode.
//
// A formula lowers into an FoPlan: a union of conjunctive bodies
// (branches) of positive atoms, '≠' comparisons and filters. A filter is
// a subformula checked per candidate row once its variables are bound —
// an anti-join probe when negated — or, when it mentions no variable of
// the body, once per run, as a guard. The lowering pushes negation
// inward (De Morgan, ¬∀ = ∃¬), gives each ∃ a fresh body variable that
// the emit projects away, turns ∀x φ into the filter ¬∃x ¬φ, distributes
// ∧ over ∨ (a closed conjunct becomes a guard instead), and eliminates
// '=' by substitution. It succeeds iff every body variable — head,
// quantified, compared or passed to a filter — is range-restricted: bound
// by a positive atom, a parameter, or an equality chain to one or to a
// constant. That is the safe-range condition: the query is then
// domain-independent, so the bytecode's answer equals the interpreter's
// over adom(db) plus the constants.
// ---------------------------------------------------------------------------

struct FoPlan {
  /// A side condition of a branch: `sub`, with its parameters bound to
  /// `args`, must have a match — or none, when `negated`.
  struct Filter {
    std::shared_ptr<const FoPlan> sub;
    bool negated = false;
    std::vector<Term> args;  // one per sub->params
  };

  /// One disjunct.
  struct Branch {
    std::vector<Term> outputs;  // the head; top-level plans only
    std::vector<Atom> atoms;
    std::vector<Comparison> comparisons;  // each binds a body variable
    std::vector<Filter> filters;          // likewise
    /// Conditions over parameters and constants only: settled before
    /// the join runs.
    std::vector<Comparison> pre_comparisons;
    std::vector<Filter> pre_filters;
    /// The body compiled onto the join bytecode, once, at lowering.
    bytecode::CompiledJoin join;
    /// Dense id among all branches of the query's plan tree: the slot of
    /// the branch's per-evaluation binding.
    size_t id = 0;
  };

  std::vector<int> params;  // variables bound by the caller, in order
  std::vector<Branch> branches;  // the union
};

namespace {

/// A conjunctive term of the disjunctive form under construction.
struct Conjunct {
  std::vector<Atom> atoms;
  std::vector<Comparison> comparisons;
  std::vector<FoPlan::Filter> filters;
  std::vector<int> quantified;  // ∃-variables; each must be range-restricted
};
using Dnf = std::vector<Conjunct>;

/// Distributing ∧ over ∨ may grow the disjunction exponentially; past
/// this many disjuncts the query is interpreted instead.
constexpr size_t kMaxDisjuncts = 64;

using Renaming = std::map<int, int>;  // formula variable -> plan variable

Conjunct Merge(const Conjunct& a, const Conjunct& b) {
  Conjunct out = a;
  out.atoms.insert(out.atoms.end(), b.atoms.begin(), b.atoms.end());
  out.comparisons.insert(out.comparisons.end(), b.comparisons.begin(),
                         b.comparisons.end());
  out.filters.insert(out.filters.end(), b.filters.begin(), b.filters.end());
  out.quantified.insert(out.quantified.end(), b.quantified.begin(),
                        b.quantified.end());
  return out;
}

class Lowering {
 public:
  /// Lowers `f`, whose free variables are among `free`, into a plan. With
  /// `head` null the plan takes one parameter per entry of `free`;
  /// otherwise it has no parameters and outputs `head`. Null when `f` is
  /// not safe-range.
  std::shared_ptr<const FoPlan> Plan(const FoFormula& f,
                                     const std::vector<int>& free,
                                     const std::vector<Term>* head) {
    Renaming ren;
    auto plan = std::make_shared<FoPlan>();
    for (int v : free) {
      ren[v] = Fresh();
      if (head == nullptr) plan->params.push_back(ren[v]);
    }
    std::vector<Term> outputs;
    if (head != nullptr) {
      for (const Term& t : *head) {
        outputs.push_back(t.is_var() ? Term::Var(ren.at(t.var())) : t);
      }
    }
    std::optional<Dnf> dnf = Lower(f, /*negated=*/false, ren);
    if (!dnf.has_value()) return nullptr;
    for (Conjunct& c : *dnf) {
      FoPlan::Branch branch;
      branch.outputs = outputs;
      switch (Finalize(std::move(c), plan->params, &branch)) {
        case Outcome::kKeep: {
          std::vector<std::vector<Term>> filter_args;
          for (const FoPlan::Filter& filter : branch.filters) {
            filter_args.push_back(filter.args);
          }
          branch.join = bytecode::CompiledJoin(
              branch.outputs, branch.atoms, branch.comparisons, plan->params,
              filter_args);
          branch.id = num_branches_++;
          plan->branches.push_back(std::move(branch));
          break;
        }
        case Outcome::kUnsatisfiable:
          break;
        case Outcome::kNotRangeRestricted:
          return nullptr;
      }
    }
    return plan;
  }

  /// Branches compiled so far, across every plan this lowering built
  /// (ids are dense in [0, num_branches())).
  size_t num_branches() const { return num_branches_; }

 private:
  enum class Outcome { kKeep, kUnsatisfiable, kNotRangeRestricted };

  int Fresh() { return next_var_++; }

  /// The disjunctive form of `f` (of ¬f when `negated`).
  std::optional<Dnf> Lower(const FoFormula& f, bool negated,
                           const Renaming& ren) {
    using Kind = FoFormula::Kind;
    auto rename = [&ren](const Term& t) {
      return t.is_var() ? Term::Var(ren.at(t.var())) : t;
    };
    switch (f.kind()) {
      case Kind::kAtom: {
        if (negated) return AsFilter(f, /*negated=*/true, ren);
        Atom atom{f.relation(), {}};
        for (const Term& t : f.args()) atom.args.push_back(rename(t));
        Conjunct c;
        c.atoms.push_back(std::move(atom));
        return Dnf{std::move(c)};
      }
      case Kind::kEq: {
        Conjunct c;
        c.comparisons.push_back(
            Comparison{rename(f.args()[0]), rename(f.args()[1]), !negated});
        return Dnf{std::move(c)};
      }
      case Kind::kNot:
        return Lower(f.children()[0], !negated, ren);
      case Kind::kAnd:
      case Kind::kOr: {
        if ((f.kind() == Kind::kAnd) == negated) {  // a disjunction: union
          Dnf out;
          for (const FoFormula& child : f.children()) {
            std::optional<Dnf> d = Lower(child, negated, ren);
            if (!d.has_value()) return std::nullopt;
            out.insert(out.end(), d->begin(), d->end());
            if (out.size() > kMaxDisjuncts) return std::nullopt;
          }
          return out;
        }
        Dnf out(1);  // a conjunction: distribute
        for (const FoFormula& child : f.children()) {
          // A closed conjunct is a guard, evaluated once per run.
          std::optional<Dnf> d =
              child.kind() != Kind::kEq && child.FreeVars().empty()
                  ? AsFilter(child, negated, ren)
                  : Lower(child, negated, ren);
          if (!d.has_value()) return std::nullopt;
          if (out.size() * d->size() > kMaxDisjuncts) return std::nullopt;
          Dnf product;
          for (const Conjunct& a : out) {
            for (const Conjunct& b : *d) product.push_back(Merge(a, b));
          }
          out = std::move(product);
        }
        return out;
      }
      case Kind::kExists:
      case Kind::kForall: {
        if ((f.kind() == Kind::kExists) != negated) {  // ∃x φ or ¬∀x φ
          const int x = Fresh();
          Renaming inner = ren;  // shadows any outer binding of the name
          inner[f.bound_var()] = x;
          std::optional<Dnf> d = Lower(f.children()[0], negated, inner);
          if (!d.has_value()) return std::nullopt;
          for (Conjunct& c : *d) c.quantified.push_back(x);
          return d;
        }
        // ¬∃x φ, or ∀x φ = ¬∃x ¬φ: an anti-join against an ∃.
        FoFormula exists =
            f.kind() == Kind::kExists
                ? f
                : FoFormula::Exists(f.bound_var(),
                                    FoFormula::Not(f.children()[0]));
        return AsFilter(exists, /*negated=*/true, ren);
      }
    }
    return std::nullopt;
  }

  /// One conjunct holding `g` (¬g when `negated`) as a filter.
  std::optional<Dnf> AsFilter(FoFormula g, bool negated,
                              const Renaming& ren) {
    while (g.kind() == FoFormula::Kind::kNot) {
      FoFormula child = g.children()[0];
      g = std::move(child);
      negated = !negated;
    }
    const std::set<int> free_set = g.FreeVars();
    const std::vector<int> free(free_set.begin(), free_set.end());
    FoPlan::Filter filter;
    filter.sub = Plan(g, free, nullptr);
    if (filter.sub == nullptr) return std::nullopt;
    filter.negated = negated;
    for (int v : free) filter.args.push_back(Term::Var(ren.at(v)));
    Conjunct c;
    c.filters.push_back(std::move(filter));
    return Dnf{std::move(c)};
  }

  /// Eliminates '=' by substitution, splits off the conditions known
  /// before the join, and checks range restriction.
  static Outcome Finalize(Conjunct c, const std::vector<int>& params,
                          FoPlan::Branch* out) {
    const std::set<int> param_set(params.begin(), params.end());
    auto is_param = [&param_set](const Term& t) {
      return t.is_var() && param_set.count(t.var()) > 0;
    };
    // Union-find over the terms of the '=' comparisons.
    std::map<Term, Term> parent;
    std::function<Term(const Term&)> find = [&](const Term& t) -> Term {
      auto it = parent.find(t);
      if (it == parent.end() || it->second == t) return t;
      Term root = find(it->second);
      parent[t] = root;
      return root;
    };
    for (const Comparison& cmp : c.comparisons) {
      if (!cmp.is_equality) continue;
      parent.emplace(cmp.lhs, cmp.lhs);
      parent.emplace(cmp.rhs, cmp.rhs);
      Term a = find(cmp.lhs), b = find(cmp.rhs);
      if (!(a == b)) parent[a] = b;
    }
    std::map<Term, std::vector<Term>> classes;
    for (const auto& [t, unused] : parent) classes[find(t)].push_back(t);
    // Each class's representative: its constant, else a parameter, else
    // its least variable. Other parameters keep their own values and
    // become checks; two distinct constants make the conjunct false.
    std::map<int, Term> subst;
    for (const auto& [root, members] : classes) {
      const Term* rep = nullptr;
      for (const Term& m : members) {
        if (!m.is_const()) continue;
        if (rep != nullptr) return Outcome::kUnsatisfiable;  // distinct
        rep = &m;
      }
      for (const Term& m : members) {
        if (rep == nullptr && is_param(m)) rep = &m;
      }
      if (rep == nullptr) rep = &members[0];
      for (const Term& m : members) {
        if (m == *rep) continue;
        if (is_param(m)) {
          out->pre_comparisons.push_back(Comparison{m, *rep, true});
        } else {
          subst[m.var()] = *rep;
        }
      }
    }
    auto sub = [&subst](const Term& t) {
      if (t.is_var()) {
        auto it = subst.find(t.var());
        if (it != subst.end()) return it->second;
      }
      return t;
    };

    std::set<int> bound(params.begin(), params.end());
    for (Atom& atom : c.atoms) {
      for (Term& t : atom.args) {
        t = sub(t);
        if (t.is_var()) bound.insert(t.var());
      }
    }
    out->atoms = std::move(c.atoms);
    auto restricted = [&bound](const Term& t) {
      return t.is_const() || bound.count(t.var()) > 0;
    };
    auto fixed = [&is_param](const Term& t) {
      return t.is_const() || is_param(t);
    };
    for (const Comparison& cmp : c.comparisons) {
      if (cmp.is_equality) continue;
      const Term l = sub(cmp.lhs), r = sub(cmp.rhs);
      if (l == r) return Outcome::kUnsatisfiable;  // t ≠ t
      if (!restricted(l) || !restricted(r)) {
        return Outcome::kNotRangeRestricted;
      }
      if (l.is_const() && r.is_const()) continue;  // distinct constants
      (fixed(l) && fixed(r) ? out->pre_comparisons : out->comparisons)
          .push_back(Comparison{l, r, false});
    }
    for (FoPlan::Filter& filter : c.filters) {
      bool all_fixed = true;
      for (Term& t : filter.args) {
        t = sub(t);
        if (!restricted(t)) return Outcome::kNotRangeRestricted;
        all_fixed = all_fixed && fixed(t);
      }
      if (all_fixed) {
        out->pre_filters.push_back(std::move(filter));
      } else {
        out->filters.push_back(std::move(filter));
      }
    }
    for (Term& t : out->outputs) {
      t = sub(t);
      if (!restricted(t)) return Outcome::kNotRangeRestricted;
    }
    for (int x : c.quantified) {
      if (!restricted(sub(Term::Var(x)))) return Outcome::kNotRangeRestricted;
    }
    return Outcome::kKeep;
  }

  int next_var_ = 0;
  size_t num_branches_ = 0;
};

/// Runs lowered plans against one database for one evaluation. Each
/// branch's compiled join is bound (relations and indexes looked up) on
/// first use and reused for every later call — a filter's plan runs once
/// per candidate row.
class FoExecutor {
 public:
  FoExecutor(const rel::Database& db, size_t num_branches)
      : db_(db), branches_(num_branches) {}

  /// True iff some branch of `plan` matches with its parameters bound to
  /// `params`; stops at the first match.
  bool HasMatch(const FoPlan& plan, const rel::Value* params) {
    for (const FoPlan::Branch& branch : plan.branches) {
      if (!PreconditionsHold(plan, branch, params)) continue;
      const bytecode::FilterFn filter = Filter(branch);
      if (Join(branch).HasMatch({params, &filter})) return true;
    }
    return false;
  }

  /// The union of the (parameterless) plan's branch outputs.
  rel::Relation Collect(const FoPlan& plan, size_t arity) {
    rel::Relation out(arity);
    for (const FoPlan::Branch& branch : plan.branches) {
      if (!PreconditionsHold(plan, branch, nullptr)) continue;
      const bytecode::FilterFn filter = Filter(branch);
      rel::Relation rows = Join(branch).Collect({nullptr, &filter});
      out = out.empty() ? std::move(rows) : out.Union(rows);
    }
    return out;
  }

 private:
  /// A branch's per-evaluation state. A plan is a tree and a branch's
  /// filters run sub-plans of other branches, so no branch is ever
  /// entered while it is running: one binding and one argument buffer
  /// per branch serve every call.
  struct BranchState {
    std::optional<bytecode::PreparedJoin> join;
    std::vector<rel::Value> args;  // a filter's parameter values
  };

  bool PreconditionsHold(const FoPlan& plan, const FoPlan::Branch& branch,
                         const rel::Value* params) {
    auto value = [&](const Term& t) {
      if (t.is_const()) return t.value();
      auto it = std::find(plan.params.begin(), plan.params.end(), t.var());
      return params[it - plan.params.begin()];
    };
    for (const Comparison& cmp : branch.pre_comparisons) {
      if ((value(cmp.lhs) == value(cmp.rhs)) != cmp.is_equality) return false;
    }
    std::vector<rel::Value>& args = branches_[branch.id].args;
    for (const FoPlan::Filter& filter : branch.pre_filters) {
      args.clear();
      for (const Term& t : filter.args) args.push_back(value(t));
      if (HasMatch(*filter.sub, args.data()) == filter.negated) return false;
    }
    return true;
  }

  bytecode::FilterFn Filter(const FoPlan::Branch& branch) {
    return [this, &branch](const bytecode::FilterRef& ref,
                           const std::vector<rel::Value>& regs) {
      const FoPlan::Filter& filter = branch.filters[ref.id];
      std::vector<rel::Value>& args = branches_[branch.id].args;
      args.clear();
      for (uint16_t reg : ref.regs) args.push_back(regs[reg]);
      return HasMatch(*filter.sub, args.data()) != filter.negated;
    };
  }

  bytecode::PreparedJoin& Join(const FoPlan::Branch& branch) {
    std::optional<bytecode::PreparedJoin>& join = branches_[branch.id].join;
    if (!join.has_value()) join.emplace(branch.join, db_);
    return *join;
  }

  const rel::Database& db_;
  std::vector<BranchState> branches_;  // by FoPlan::Branch::id
};

}  // namespace

FoQuery::FoQuery(std::vector<Term> head, FoFormula formula)
    : head_(std::move(head)), formula_(std::move(formula)) {
  if (Validate().has_value()) return;  // ill-formed: the interpreter reports
  std::vector<int> head_vars;
  for (const Term& t : head_) {
    if (t.is_var() && std::find(head_vars.begin(), head_vars.end(),
                                t.var()) == head_vars.end()) {
      head_vars.push_back(t.var());
    }
  }
  Lowering lowering;
  plan_ = lowering.Plan(formula_, head_vars, &head_);
  num_branches_ = lowering.num_branches();
}

rel::Relation FoQuery::Evaluate(const rel::Database& db) const {
  if (plan_ == nullptr) return EvaluateNaive(db);
  return FoExecutor(db, num_branches_).Collect(*plan_, head_.size());
}

bool FoQuery::EvaluatesNonempty(const rel::Database& db) const {
  if (plan_ == nullptr) return !EvaluateNaive(db).empty();
  return FoExecutor(db, num_branches_).HasMatch(*plan_, nullptr);
}

std::optional<std::string> FoQuery::Validate() const {
  std::set<int> free = formula_.FreeVars();
  std::set<int> head_vars;
  for (const Term& t : head_) {
    if (t.is_var()) head_vars.insert(t.var());
  }
  for (int v : free) {
    if (head_vars.count(v) == 0) {
      return "free variable X" + std::to_string(v) + " not in head";
    }
  }
  return std::nullopt;
}

rel::Relation FoQuery::EvaluateNaive(const rel::Database& db) const {
  // Active-domain semantics: quantify over adom(db) plus the query's
  // constants. The shared snapshot is cached per database generation;
  // copy it only if some constant is actually missing from it.
  std::shared_ptr<const std::set<rel::Value>> adom = db.ActiveDomainShared();
  std::set<rel::Value> constants = formula_.Constants();
  for (const Term& t : head_) {
    if (t.is_const()) constants.insert(t.value());
  }
  const std::set<rel::Value>* domain = adom.get();
  std::set<rel::Value> extended;
  for (const rel::Value& c : constants) {
    if (adom->count(c) == 0) {
      extended = *adom;
      extended.insert(constants.begin(), constants.end());
      domain = &extended;
      break;
    }
  }
  // Enumerate assignments of the head *variables* over the domain.
  std::vector<int> vars;
  {
    std::set<int> seen;
    for (const Term& t : head_) {
      if (t.is_var() && seen.insert(t.var()).second) vars.push_back(t.var());
    }
  }
  rel::Relation out(head_.size());
  Binding binding;
  FoFormula::EvalContext ctx;  // shared across the O(|adom|^k) sweeps
  std::function<void(size_t)> assign = [&](size_t i) {
    if (i == vars.size()) {
      if (formula_.EvalMutable(db, *domain, &binding, &ctx)) {
        rel::Tuple t;
        t.reserve(head_.size());
        for (const Term& term : head_) {
          auto v = ResolveTerm(term, binding);
          SWS_CHECK(v.has_value());
          t.push_back(*v);
        }
        out.Insert(std::move(t));
      }
      return;
    }
    for (const rel::Value& v : *domain) {
      if (!sws::util::StepTick()) break;  // cancelled: abandon enumeration
      binding[vars[i]] = v;
      assign(i + 1);
    }
    binding.erase(vars[i]);
  };
  assign(0);
  return out;
}

FoQuery FoQuery::FromCq(const ConjunctiveQuery& cq) {
  std::vector<FoFormula> conjuncts;
  for (const Atom& a : cq.body()) {
    conjuncts.push_back(FoFormula::MakeAtom(a.relation, a.args));
  }
  for (const Comparison& c : cq.comparisons()) {
    FoFormula eq = FoFormula::Eq(c.lhs, c.rhs);
    conjuncts.push_back(c.is_equality ? eq : FoFormula::Not(eq));
  }
  FoFormula body = FoFormula::And(std::move(conjuncts));
  // Existentially quantify the non-head variables.
  std::set<int> head_vars;
  for (const Term& t : cq.head()) {
    if (t.is_var()) head_vars.insert(t.var());
  }
  std::vector<int> existential;
  for (int v : cq.Vars()) {
    if (head_vars.count(v) == 0) existential.push_back(v);
  }
  return FoQuery(cq.head(), FoFormula::Exists(existential, std::move(body)));
}

std::string FoQuery::ToString(
    const std::function<std::string(int)>& name) const {
  std::ostringstream out;
  out << "ans(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out << ", ";
    out << head_[i].ToString(name);
  }
  out << ") :- " << formula_.ToString(name);
  return out.str();
}

namespace {

// Enumerates all databases with the given relation arities over the domain
// {1..k}: for each relation, every subset of the k^arity possible tuples.
// Invokes `cb`; stops early if cb returns false. Returns false iff stopped.
bool EnumerateDatabases(
    const std::map<std::string, size_t>& arities, size_t k,
    uint64_t* budget, const std::function<bool(const rel::Database&)>& cb) {
  // Materialize the tuple universe per relation.
  std::vector<std::pair<std::string, std::vector<rel::Tuple>>> universes;
  for (const auto& [name, arity] : arities) {
    std::vector<rel::Tuple> tuples;
    rel::Tuple current(arity);
    std::function<void(size_t)> fill = [&](size_t i) {
      if (i == arity) {
        tuples.push_back(current);
        return;
      }
      for (size_t v = 1; v <= k; ++v) {
        current[i] = rel::Value::Int(static_cast<int64_t>(v));
        fill(i + 1);
      }
    };
    fill(0);
    universes.emplace_back(name, std::move(tuples));
  }
  rel::Database db;
  for (const auto& [name, tuples] : universes) {
    db.Set(name, rel::Relation(arities.at(name)));
  }
  std::function<bool(size_t)> choose = [&](size_t rel_index) -> bool {
    if (rel_index == universes.size()) {
      if (*budget == 0) return false;
      --*budget;
      return cb(db);
    }
    const auto& [name, tuples] = universes[rel_index];
    // Iterate subsets via recursive include/exclude per tuple.
    std::function<bool(size_t)> pick = [&](size_t t_index) -> bool {
      if (t_index == tuples.size()) return choose(rel_index + 1);
      if (!pick(t_index + 1)) return false;  // exclude tuples[t_index]
      db.GetMutable(name)->Insert(tuples[t_index]);
      bool cont = pick(t_index + 1);         // include tuples[t_index]
      db.GetMutable(name)->Erase(tuples[t_index]);
      return cont;
    };
    return pick(0);
  };
  return choose(0);
}

}  // namespace

FoBoundedSatResult FoBoundedSat(const FoFormula& sentence,
                                size_t max_domain_size,
                                uint64_t max_databases) {
  SWS_CHECK(sentence.FreeVars().empty()) << "FoBoundedSat needs a sentence";
  FoBoundedSatResult result;
  std::map<std::string, size_t> arities = sentence.RelationArities();
  uint64_t budget = max_databases;
  std::set<rel::Value> constants = sentence.Constants();
  for (size_t k = 1; k <= max_domain_size && !result.found; ++k) {
    // The evaluation domain depends only on k, not on the candidate
    // database — build it once per k instead of once per database.
    std::set<rel::Value> eval_domain = constants;
    for (size_t v = 1; v <= k; ++v) {
      eval_domain.insert(rel::Value::Int(static_cast<int64_t>(v)));
    }
    EnumerateDatabases(arities, k, &budget, [&](const rel::Database& db) {
      ++result.databases_checked;
      if (sentence.Eval(db, eval_domain, {})) {
        result.found = true;
        result.witness = db;
        return false;
      }
      return true;
    });
    if (budget == 0) break;
  }
  return result;
}

}  // namespace sws::logic
