#ifndef SWS_LOGIC_BYTECODE_H_
#define SWS_LOGIC_BYTECODE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "util/cancellation.h"

namespace sws::logic::bytecode {

/// Register-bytecode join execution: the one join executor behind CQ,
/// UCQ, containment and compiled (safe-range) FO evaluation.
///
/// A greedily-ordered conjunctive body is lowered into a JoinProgram: a
/// flat register machine whose state is a vector of packed 8-byte
/// rel::Value words ("registers") — parameters, then variables in
/// first-occurrence order, then the program's constants, preloaded. One
/// Level per atom either scans its relation's rows or probes a
/// bound-column-mask hash index (rel::Relation::GetIndex), and each
/// candidate row is vetted by a straight-line span of three-operand ops
/// over registers and columnar loads. No virtual dispatch, no per-probe
/// allocation: the executor is an iterative cursor stack driven by one
/// switch loop, and probe keys reuse per-level buffers whose constant
/// components are prefilled at compile time.
///
/// Compiling reads only the query text, so a rule is compiled once, when
/// it is built (CompiledJoin); an evaluation only binds the compiled form
/// to its database (Bind, PreparedJoin): relation lookups by name, arity
/// checks and index fetches.
///
/// ISA (see DESIGN.md §12 for the op table):
///   kLoad      regs[a] = row[b]        bind a first-occurrence variable
///   kCheckCol  row[b] == regs[a]?      repeated variable / constant /
///                                      non-indexable column check
///   kCmpEq     regs[a] == regs[b]?     attached '=' comparison
///   kCmpNe     regs[a] != regs[b]?     attached '≠' comparison
///   kFilter    filter(filters[a])?     attached side condition (an FO
///                                      subformula, e.g. an anti-join)
/// Check ops reject the candidate row on failure. Because Values are
/// canonical packed words, every register op is a single integer
/// load/compare.
struct Op {
  enum Code : uint8_t {
    kLoad = 0,
    kCheckCol = 1,
    kCmpEq = 2,
    kCmpNe = 3,
    kFilter = 4
  };
  Code code;
  uint16_t a;  // register (kFilter: index into JoinProgram::filters)
  uint32_t b;  // column (kLoad/kCheckCol) or second register (kCmp*)
};

/// One variable component of a probe key: key[pos] = regs[reg].
/// Constant components are prefilled in the level's key template.
struct KeySlot {
  uint32_t pos;
  uint16_t reg;
};

/// One atom of a compiled body: which relation it reads and how. The
/// relation is named, not bound: a program is database-independent, and
/// Bind attaches the instance per evaluation.
struct Level {
  std::string relation;
  uint32_t arity = 0;
  /// Columns bound before this level (constants, parameters and earlier
  /// levels' variables): the mask of the hash index the level probes.
  /// 0: full scan.
  uint64_t mask = 0;
  uint32_t ops_begin = 0, ops_end = 0;    // span into JoinProgram::ops
  uint32_t keys_begin = 0, keys_end = 0;  // span into JoinProgram::keys
};

/// A side condition attached by a kFilter op: filter `id` of the body
/// (an index into CompiledJoin's `filters`), whose argument values sit
/// in `regs` when the op runs.
struct FilterRef {
  uint32_t id = 0;
  std::vector<uint16_t> regs;
};

/// A join-ordered body lowered to register bytecode. Immutable once
/// built and independent of any database, so one program is compiled
/// per rule and shared read-only by every evaluating thread.
struct JoinProgram {
  std::vector<Level> levels;
  std::vector<Op> ops;        // all levels' ops, concatenated
  std::vector<KeySlot> keys;  // all levels' variable key slots
  std::vector<FilterRef> filters;  // kFilter operands
  /// Initial register file: [0, num_params) parameters (written by Run
  /// from its Inputs), [num_params, num_var_regs) variable registers
  /// (written by kLoad before any read), then the constants.
  std::vector<rel::Value> reg_init;
  uint16_t num_params = 0;
  uint16_t num_var_regs = 0;
  /// Per-level probe-key buffers with constant components prefilled.
  std::vector<rel::Tuple> key_templates;
  /// Variable id -> register (parameters included), for resolving head
  /// terms / bindings.
  std::map<int, int> var_reg;
  bool comparison_failed = false;  // a const-vs-const comparison is false
};

/// A program bound to one database for one evaluation: each level's
/// relation instance and index, plus the executor's working memory
/// (registers, probe-key buffers, cursors), set up once by Bind and
/// reused by every Run — a filter's sub-body runs once per candidate row
/// of its parent. Belongs to one thread; the program and the database
/// must outlive it.
struct BoundProgram {
  struct Cursor {
    const uint32_t* bucket = nullptr;  // null: positional scan
    size_t pos = 0;
    size_t end = 0;
  };
  struct BoundLevel {
    const rel::Relation* relation = nullptr;
    /// Shared ownership: under an IndexBudget the relation's pool may
    /// evict this index mid-run; this reference keeps it alive.
    std::shared_ptr<const rel::Relation::Index> index;  // null: full scan
  };

  const JoinProgram* program = nullptr;
  /// Some level's relation is absent, of another arity, or empty (or a
  /// const-vs-const comparison failed): the body has no match.
  bool never_matches = false;
  std::vector<BoundLevel> levels;
  /// Copied from reg_init once: Run rewrites only the parameters, since
  /// every variable register is written by kLoad before any op reads it.
  std::vector<rel::Value> regs;
  std::vector<rel::Tuple> keys;  // per-level probe keys, constants kept
  std::vector<Cursor> cursors;
};

/// Binds `p` to `db`. Per level: looks the relation up by name, checks
/// its arity, and takes the level's index from Relation::GetIndex (so
/// index budgets and gate charging apply), or scans when the mask is 0.
/// Indexes are only requested once every level's relation is present,
/// of the right arity and nonempty.
BoundProgram Bind(const JoinProgram& p, const rel::Database& db);

/// Evaluates a kFilter op: true iff the candidate row passes.
using FilterFn =
    std::function<bool(const FilterRef&, const std::vector<rel::Value>&)>;

/// Per-execution inputs of a body prepared with parameters or filters:
/// the parameter values (CompiledJoin's `params` order) and the filter
/// evaluator. Plain CQ bodies need neither.
struct Inputs {
  const rel::Value* params = nullptr;
  const FilterFn* filter = nullptr;
};

/// Lowers a join-ordered body (e.g. by OrderAtomsGreedily) into a
/// JoinProgram. Each comparison is attached at the first level where
/// both sides are bound, so it costs exactly one compare per candidate
/// row. (CompiledJoin compiles bodies with parameters and filters the
/// same way.)
JoinProgram Compile(const std::vector<Atom>& ordered,
                    const std::vector<Comparison>& comparisons);

/// Join ordering from the query text alone: repeatedly pick the atom
/// with the most constant/already-bound argument positions (parameters
/// count as bound), breaking ties by body order. Turns the guard-heavy
/// bodies produced by unfolding (sws/unfold.h) from cross-products into
/// chains and feeds the index probes the most selective prefix first.
/// The order never depends on instance sizes, so it is fixed at compile
/// time; an empty relation anywhere makes Bind report no match instead.
std::vector<Atom> OrderAtomsGreedily(const std::vector<Atom>& body,
                                     const std::vector<int>& params = {});

/// Runs levels [first, last) of the bound program (all by default; a
/// sub-range must be a union of connected components, see CompiledJoin);
/// `sink(regs)` fires once per complete match and may return false to
/// stop enumeration. Returns false iff stopped early — by the sink or by
/// a tripped util::StepGate (cooperative cancellation is checked once
/// per candidate row; StepTick batches the gate admit). An empty range
/// has exactly one empty match.
template <typename Sink>
bool Run(BoundProgram& b, Sink&& sink, const Inputs& in = {},
         size_t first = 0, size_t last = SIZE_MAX) {
  if (b.never_matches) return true;
  const JoinProgram& p = *b.program;
  std::vector<rel::Value>& regs = b.regs;
  for (uint16_t i = 0; i < p.num_params; ++i) regs[i] = in.params[i];
  last = std::min(last, p.levels.size());
  if (first == last) return sink(regs);

  size_t li = first;
  bool entering = true;
  while (true) {
    const Level& level = p.levels[li];
    const BoundProgram::BoundLevel& bound = b.levels[li];
    BoundProgram::Cursor& cur = b.cursors[li];
    if (entering) {
      entering = false;
      if (bound.index != nullptr) {
        rel::Tuple& key = b.keys[li];
        for (uint32_t k = level.keys_begin; k != level.keys_end; ++k) {
          key[p.keys[k].pos] = regs[p.keys[k].reg];
        }
        auto it = bound.index->buckets.find(key);
        if (it == bound.index->buckets.end()) {
          cur = BoundProgram::Cursor{};
        } else {
          cur.bucket = it->second.data();
          cur.pos = 0;
          cur.end = it->second.size();
        }
      } else {
        cur.bucket = nullptr;
        cur.pos = 0;
        cur.end = bound.relation->size();
      }
    }

    // Advance this level's cursor to the next row passing all ops.
    const rel::Relation& rel = *bound.relation;
    bool found = false;
    while (cur.pos < cur.end) {
      const size_t row = cur.bucket != nullptr ? cur.bucket[cur.pos] : cur.pos;
      ++cur.pos;
      if (!sws::util::StepTick()) return false;
      bool ok = true;
      for (uint32_t oi = level.ops_begin; oi != level.ops_end; ++oi) {
        const Op op = p.ops[oi];
        switch (op.code) {
          case Op::kLoad:
            regs[op.a] = rel.At(row, op.b);
            break;
          case Op::kCheckCol:
            ok = rel.At(row, op.b) == regs[op.a];
            break;
          case Op::kCmpEq:
            ok = regs[op.a] == regs[op.b];
            break;
          case Op::kCmpNe:
            ok = !(regs[op.a] == regs[op.b]);
            break;
          case Op::kFilter:
            ok = (*in.filter)(p.filters[op.a], regs);
            break;
        }
        if (!ok) break;
      }
      if (ok) {
        found = true;
        break;
      }
    }

    if (!found) {
      if (li == first) return true;  // exhausted the outermost level: done
      --li;                          // resume the parent cursor where it was
      continue;
    }
    if (li + 1 == last) {
      if (!sink(regs)) return false;
      // Stay at this level; keep advancing its cursor.
    } else {
      ++li;
      entering = true;
    }
  }
}

/// True iff levels [first, last) have at least one match (stops at the
/// first). Distinguishes "no match" from a cancellation abort by
/// checking the found flag: an aborted run reports no match.
bool HasMatch(BoundProgram& b, const Inputs& in = {}, size_t first = 0,
              size_t last = SIZE_MAX);

/// A conjunctive body compiled once, independently of any database — the
/// compiled form of a CQ rule and of every disjunct of a compiled FO
/// query. Immutable: build it when the rule is built and share it
/// read-only across threads; PreparedJoin binds it per evaluation.
///
/// The body splits into connected components over shared variables
/// (atoms, comparisons and filters connect their variables; parameters
/// are pre-bound and connect nothing). A component without a head
/// variable needs only one witness and becomes its own program; the
/// others join in one program, component after component, each
/// component's atoms ordered by OrderAtomsGreedily. HasMatch checks each
/// of those components on its own.
///
/// `params` are variables bound before the first level (their values
/// arrive through Inputs); they take registers [0, params.size()) and
/// become probe-key components wherever they occur. Each filter, given
/// by its argument terms, becomes a kFilter op at the first level binding
/// all of its variables, after that level's comparisons. Every
/// comparison and filter must mention a variable that some atom binds
/// (constant-only comparisons are resolved here; the caller settles
/// parameter-only conditions before running).
class CompiledJoin {
 public:
  CompiledJoin() = default;
  CompiledJoin(const std::vector<Term>& head, const std::vector<Atom>& atoms,
               const std::vector<Comparison>& comparisons,
               const std::vector<int>& params = {},
               const std::vector<std::vector<Term>>& filters = {});

 private:
  friend class PreparedJoin;

  struct HeadPart {
    int reg = -1;  // -1: the constant below
    rel::Value constant;
  };

  size_t arity_ = 0;
  bool never_matches_ = false;  // a constant-only comparison is false
  std::vector<JoinProgram> existential_;  // components without a head var
  JoinProgram main_;                      // the head components, joined
  /// First level of each head component in main_, ascending.
  std::vector<uint32_t> segments_;
  std::vector<HeadPart> head_parts_;
  /// Head parts [0, group_prefix_) are loaded from columns [0,
  /// group_prefix_) of main_'s first level, a scan (see Collect).
  size_t group_prefix_ = 0;
  std::string unsafe_head_;  // a head variable no atom binds, if any
};

/// A CompiledJoin bound to one database for one evaluation (see
/// BoundProgram): the unit a rule's evaluation runs. Cheap to make —
/// name lookups, arity checks and index fetches only — and reusable for
/// any number of HasMatch/Collect calls against that database.
class PreparedJoin {
 public:
  PreparedJoin(const CompiledJoin& join, const rel::Database& db);

  /// True iff the body has a match (stops at the first).
  bool HasMatch(const Inputs& in = {});

  /// The head rows of all matches, distinct and sorted. Existential
  /// variables are projected away at emit time: rows dedup into one
  /// row-major buffer that leaves sorted (see DESIGN.md §12).
  rel::Relation Collect(const Inputs& in = {});

 private:
  const CompiledJoin* join_;
  bool never_matches_;
  std::vector<BoundProgram> existential_;
  BoundProgram main_;
};

}  // namespace sws::logic::bytecode

#endif  // SWS_LOGIC_BYTECODE_H_
