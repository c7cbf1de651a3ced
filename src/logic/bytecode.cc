#include "logic/bytecode.h"

#include <algorithm>
#include <set>

#include "util/common.h"

namespace sws::logic::bytecode {

namespace {

/// A side condition to attach: filter `id`'s argument terms.
struct FilterArgs {
  uint32_t id;
  const std::vector<Term>* args;
};

// Compile, plus the parameters and filters of CompiledJoin (see there).
JoinProgram CompileWithFilters(const std::vector<Atom>& ordered,
                               const std::vector<Comparison>& comparisons,
                               const std::vector<int>& params,
                               const std::vector<FilterArgs>& filters) {
  JoinProgram program;

  // Pass 1: registers for the parameters, then for the atoms' variables
  // in first-occurrence order.
  auto add_var = [&program](int var) {
    if (program.var_reg.count(var) == 0) {
      const int reg = static_cast<int>(program.var_reg.size());
      program.var_reg.emplace(var, reg);
    }
  };
  for (int var : params) add_var(var);
  SWS_CHECK_EQ(program.var_reg.size(), params.size()) << "repeated parameter";
  for (const Atom& atom : ordered) {
    for (const Term& term : atom.args) {
      if (term.is_var()) add_var(term.var());
    }
  }
  SWS_CHECK_LE(program.var_reg.size(), size_t{UINT16_MAX});
  program.num_params = static_cast<uint16_t>(params.size());
  program.num_var_regs = static_cast<uint16_t>(program.var_reg.size());

  std::vector<rel::Value> constants;
  std::map<rel::Value, uint16_t> const_reg_of;
  auto const_reg = [&](const rel::Value& v) -> uint16_t {
    auto it = const_reg_of.find(v);
    if (it != const_reg_of.end()) return it->second;
    const uint16_t reg =
        static_cast<uint16_t>(program.num_var_regs + constants.size());
    constants.push_back(v);
    const_reg_of.emplace(v, reg);
    return reg;
  };

  // Constant-vs-constant comparisons resolve at compile time.
  std::vector<bool> attached(comparisons.size(), false);
  for (size_t ci = 0; ci < comparisons.size(); ++ci) {
    const Comparison& c = comparisons[ci];
    if (c.lhs.is_const() && c.rhs.is_const()) {
      attached[ci] = true;
      if ((c.lhs.value() == c.rhs.value()) != c.is_equality) {
        program.comparison_failed = true;
      }
    }
  }
  std::vector<bool> filter_attached(filters.size(), false);

  // Pass 2: one Level per atom. Parameters are bound before level 0.
  std::set<int> loaded(params.begin(), params.end());  // kLoad emitted
  std::set<int> bound_prior = loaded;  // bound at fully-compiled levels
  auto reg_of = [&](const Term& t, uint16_t* reg) {
    if (t.is_const()) {
      *reg = const_reg(t.value());
      return true;
    }
    if (loaded.count(t.var()) == 0) return false;
    *reg = static_cast<uint16_t>(program.var_reg.at(t.var()));
    return true;
  };
  for (const Atom& atom : ordered) {
    Level level;
    level.relation = atom.relation;
    level.arity = static_cast<uint32_t>(atom.args.size());
    level.ops_begin = static_cast<uint32_t>(program.ops.size());
    level.keys_begin = static_cast<uint32_t>(program.keys.size());
    uint64_t mask = 0;
    rel::Tuple key_template;  // parallel to the masked columns, ascending
    for (size_t col = 0; col < atom.args.size(); ++col) {
      const Term& term = atom.args[col];
      if (term.is_const()) {
        if (col < 64) {
          mask |= uint64_t{1} << col;
          key_template.push_back(term.value());  // prefilled, never rewritten
        } else {
          program.ops.push_back({Op::kCheckCol, const_reg(term.value()),
                                 static_cast<uint32_t>(col)});
        }
        continue;
      }
      const uint16_t reg =
          static_cast<uint16_t>(program.var_reg.at(term.var()));
      if (loaded.count(term.var()) == 0) {  // first occurrence: bind here
        loaded.insert(term.var());
        program.ops.push_back({Op::kLoad, reg, static_cast<uint32_t>(col)});
      } else if (bound_prior.count(term.var()) > 0 && col < 64) {
        mask |= uint64_t{1} << col;  // bound earlier: probe key component
        program.keys.push_back(
            {static_cast<uint32_t>(key_template.size()), reg});
        key_template.push_back(rel::Value());  // rewritten per probe
      } else {
        // Repeated within this atom (its register is written by an
        // earlier kLoad of the same level) or beyond indexable columns.
        program.ops.push_back(
            {Op::kCheckCol, reg, static_cast<uint32_t>(col)});
      }
    }
    level.mask = mask;
    // Attach each comparison at the first level where both sides are
    // bound; it then costs exactly one compare per candidate row.
    for (size_t ci = 0; ci < comparisons.size(); ++ci) {
      if (attached[ci]) continue;
      const Comparison& c = comparisons[ci];
      uint16_t lhs, rhs;
      if (!reg_of(c.lhs, &lhs) || !reg_of(c.rhs, &rhs)) continue;
      attached[ci] = true;
      program.ops.push_back(
          {c.is_equality ? Op::kCmpEq : Op::kCmpNe, lhs, rhs});
    }
    // Filters likewise, after the (cheaper) comparisons.
    for (size_t fi = 0; fi < filters.size(); ++fi) {
      if (filter_attached[fi]) continue;
      FilterRef ref;
      ref.id = filters[fi].id;
      for (const Term& t : *filters[fi].args) {
        uint16_t reg = 0;
        if (!reg_of(t, &reg)) break;
        ref.regs.push_back(reg);
      }
      if (ref.regs.size() != filters[fi].args->size()) continue;
      filter_attached[fi] = true;
      program.ops.push_back(
          {Op::kFilter, static_cast<uint16_t>(program.filters.size()), 0});
      program.filters.push_back(std::move(ref));
    }
    for (const Term& t : atom.args) {
      if (t.is_var()) bound_prior.insert(t.var());
    }
    level.ops_end = static_cast<uint32_t>(program.ops.size());
    level.keys_end = static_cast<uint32_t>(program.keys.size());
    program.key_templates.push_back(std::move(key_template));
    program.levels.push_back(std::move(level));
  }
  for (bool a : filter_attached) {
    SWS_CHECK(a) << "filter over a variable no atom binds";
  }

  program.reg_init.assign(program.num_var_regs, rel::Value());
  program.reg_init.insert(program.reg_init.end(), constants.begin(),
                          constants.end());
  return program;
}

// Splits a body into connected components by shared variables:
// comparisons and filters join the components of their variables;
// parameters are pre-bound and join nothing.
struct Components {
  // Parallel vectors: one entry per component.
  std::vector<std::vector<Atom>> atoms;
  std::vector<std::vector<Comparison>> comparisons;
  std::vector<std::vector<FilterArgs>> filters;
  std::vector<bool> touches_head;
  bool constant_comparison_failed = false;  // a const-vs-const check failed
};

Components SplitComponents(const std::vector<Atom>& body,
                           const std::vector<Comparison>& comparisons,
                           const std::vector<std::vector<Term>>& filters,
                           const std::vector<Term>& head,
                           const std::vector<int>& params) {
  Components out;
  const std::set<int> param_set(params.begin(), params.end());
  auto is_free_var = [&param_set](const Term& t) {
    return t.is_var() && param_set.count(t.var()) == 0;
  };
  // Union-find over the non-parameter variables.
  std::map<int, int> parent;
  std::function<int(int)> find = [&](int x) -> int {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent.emplace(x, x);
      return x;
    }
    if (it->second == x) return x;
    int root = find(it->second);
    it->second = root;  // path compression
    return root;
  };
  auto unite_terms = [&](const std::vector<Term>& terms) {
    int first = -1;
    for (const Term& t : terms) {
      if (!is_free_var(t)) continue;
      if (first < 0) {
        first = t.var();
        find(first);
      } else {
        parent[find(first)] = find(t.var());
      }
    }
  };
  for (const Atom& a : body) unite_terms(a.args);
  for (const Comparison& c : comparisons) unite_terms({c.lhs, c.rhs});
  for (const auto& args : filters) unite_terms(args);

  // Assign atoms/comparisons/filters to components keyed by variable
  // roots; atoms without such variables each form their own component.
  std::map<int, size_t> root_to_component;
  auto new_component = [&out]() {
    out.atoms.emplace_back();
    out.comparisons.emplace_back();
    out.filters.emplace_back();
    out.touches_head.push_back(false);
    return out.atoms.size() - 1;
  };
  auto component_of_var = [&](int var) {
    auto [it, inserted] =
        root_to_component.emplace(find(var), out.atoms.size());
    if (inserted) new_component();
    return it->second;
  };
  auto component_of_terms = [&](const std::vector<Term>& terms) {
    for (const Term& t : terms) {
      if (is_free_var(t)) return component_of_var(t.var());
    }
    return out.atoms.size();  // none
  };
  for (const Atom& a : body) {
    size_t component = component_of_terms(a.args);
    if (component == out.atoms.size()) component = new_component();
    out.atoms[component].push_back(a);
  }
  for (const Comparison& c : comparisons) {
    const size_t component = component_of_terms({c.lhs, c.rhs});
    if (component != out.atoms.size()) {
      out.comparisons[component].push_back(c);
      continue;
    }
    SWS_CHECK(c.lhs.is_const() && c.rhs.is_const())
        << "comparison over parameters only: " << c.ToString();
    if ((c.lhs.value() == c.rhs.value()) != c.is_equality) {
      out.constant_comparison_failed = true;
    }
  }
  for (size_t fi = 0; fi < filters.size(); ++fi) {
    const size_t component = component_of_terms(filters[fi]);
    SWS_CHECK(component != out.atoms.size())
        << "filter over parameters and constants only";
    out.filters[component].push_back(
        FilterArgs{static_cast<uint32_t>(fi), &filters[fi]});
  }
  for (const Term& t : head) {
    // Safe bodies bind every head variable in some atom, so it has a
    // component; an unsafe one fails at head resolution.
    if (is_free_var(t)) out.touches_head[component_of_var(t.var())] = true;
  }
  return out;
}

}  // namespace

JoinProgram Compile(const std::vector<Atom>& ordered,
                    const std::vector<Comparison>& comparisons) {
  return CompileWithFilters(ordered, comparisons, {}, {});
}

std::vector<Atom> OrderAtomsGreedily(const std::vector<Atom>& body,
                                     const std::vector<int>& params) {
  std::vector<Atom> ordered;
  std::vector<bool> used(body.size(), false);
  std::set<int> bound(params.begin(), params.end());
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    int best_bound = -1;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      int bound_args = 0;
      for (const Term& t : body[i].args) {
        if (t.is_const() || (t.is_var() && bound.count(t.var()) > 0)) {
          ++bound_args;
        }
      }
      if (bound_args > best_bound) {  // strict: ties keep body order
        best = i;
        best_bound = bound_args;
      }
    }
    used[best] = true;
    for (const Term& t : body[best].args) {
      if (t.is_var()) bound.insert(t.var());
    }
    ordered.push_back(body[best]);
  }
  return ordered;
}

BoundProgram Bind(const JoinProgram& p, const rel::Database& db) {
  BoundProgram b;
  b.program = &p;
  b.never_matches = p.comparison_failed;
  b.levels.resize(p.levels.size());
  for (size_t i = 0; i < p.levels.size() && !b.never_matches; ++i) {
    auto it = db.relations().find(p.levels[i].relation);
    if (it == db.relations().end() ||
        it->second.arity() != p.levels[i].arity || it->second.empty()) {
      b.never_matches = true;  // no facts: the whole body matches nothing
    } else {
      b.levels[i].relation = &it->second;
    }
  }
  if (b.never_matches) return b;
  for (size_t i = 0; i < p.levels.size(); ++i) {
    if (p.levels[i].mask != 0) {
      b.levels[i].index = b.levels[i].relation->GetIndex(p.levels[i].mask);
    }
  }
  b.regs = p.reg_init;
  b.keys = p.key_templates;
  b.cursors.resize(p.levels.size());
  return b;
}

bool HasMatch(BoundProgram& b, const Inputs& in, size_t first, size_t last) {
  bool found = false;
  Run(
      b,
      [&found](const std::vector<rel::Value>&) {
        found = true;
        return false;  // one witness suffices
      },
      in, first, last);
  return found;
}

CompiledJoin::CompiledJoin(const std::vector<Term>& head,
                           const std::vector<Atom>& atoms,
                           const std::vector<Comparison>& comparisons,
                           const std::vector<int>& params,
                           const std::vector<std::vector<Term>>& filters)
    : arity_(head.size()) {
  Components components =
      SplitComponents(atoms, comparisons, filters, head, params);
  if (components.constant_comparison_failed) {
    never_matches_ = true;
    return;
  }
  std::vector<Atom> head_atoms;
  std::vector<Comparison> head_comparisons;
  std::vector<FilterArgs> head_filters;
  for (size_t i = 0; i < components.atoms.size(); ++i) {
    std::vector<Atom> ordered = OrderAtomsGreedily(components.atoms[i], params);
    if (components.touches_head[i]) {
      if (!ordered.empty()) {
        segments_.push_back(static_cast<uint32_t>(head_atoms.size()));
      }
      head_atoms.insert(head_atoms.end(), ordered.begin(), ordered.end());
      head_comparisons.insert(head_comparisons.end(),
                              components.comparisons[i].begin(),
                              components.comparisons[i].end());
      head_filters.insert(head_filters.end(), components.filters[i].begin(),
                          components.filters[i].end());
    } else {
      existential_.push_back(CompileWithFilters(
          ordered, components.comparisons[i], params, components.filters[i]));
    }
  }
  main_ = CompileWithFilters(head_atoms, head_comparisons, params,
                             head_filters);
  // Resolve head terms to registers/constants once, outside the loop.
  head_parts_.reserve(head.size());
  for (const Term& term : head) {
    HeadPart part;
    if (term.is_var()) {
      auto it = main_.var_reg.find(term.var());
      if (it != main_.var_reg.end()) {
        part.reg = it->second;
      } else if (unsafe_head_.empty()) {
        unsafe_head_ = term.ToString();  // reported if the body ever matches
      }
    } else {
      part.constant = term.value();
    }
    head_parts_.push_back(std::move(part));
  }
  // Grouped-emission detection (see Collect): head parts [0, p) are
  // variables kLoad-ed from columns [0, p), in order, at an outermost
  // *scan* level.
  if (!main_.levels.empty() && main_.levels[0].mask == 0) {
    const Level& lvl = main_.levels[0];
    while (group_prefix_ < arity_) {
      const HeadPart& part = head_parts_[group_prefix_];
      bool loads_col = false;
      for (uint32_t oi = lvl.ops_begin; oi != lvl.ops_end && !loads_col;
           ++oi) {
        const Op& op = main_.ops[oi];
        loads_col = op.code == Op::kLoad && op.b == group_prefix_ &&
                    part.reg >= 0 && op.a == part.reg;
      }
      if (!loads_col) break;
      ++group_prefix_;
    }
  }
}

PreparedJoin::PreparedJoin(const CompiledJoin& join, const rel::Database& db)
    : join_(&join), never_matches_(join.never_matches_) {
  // Bind program by program, stopping at the first that cannot match:
  // the body is one conjunction, so no index of a later one is needed.
  for (size_t i = 0; i < join.existential_.size() && !never_matches_; ++i) {
    existential_.push_back(Bind(join.existential_[i], db));
    never_matches_ = existential_.back().never_matches;
  }
  if (never_matches_) return;
  main_ = Bind(join.main_, db);
  never_matches_ = main_.never_matches;
}

bool PreparedJoin::HasMatch(const Inputs& in) {
  if (never_matches_) return false;
  for (BoundProgram& p : existential_) {
    if (!bytecode::HasMatch(p, in)) return false;
  }
  // The head components share no variable: each needs one witness.
  const std::vector<uint32_t>& seg = join_->segments_;
  for (size_t i = 0; i < seg.size(); ++i) {
    const size_t last = i + 1 < seg.size() ? seg[i + 1] : SIZE_MAX;
    if (!bytecode::HasMatch(main_, in, seg[i], last)) return false;
  }
  return true;
}

rel::Relation PreparedJoin::Collect(const Inputs& in) {
  const size_t arity = join_->arity_;
  rel::Relation out(arity);
  if (never_matches_) return out;
  SWS_CHECK(join_->unsafe_head_.empty())
      << "unsafe head variable " << join_->unsafe_head_;
  // Existential components (no head variable): one witness suffices.
  for (BoundProgram& p : existential_) {
    if (!bytecode::HasMatch(p, in)) return out;
  }
  if (arity == 0) {  // nullary head: {()} iff any match exists
    if (bytecode::HasMatch(main_, in)) out.Insert({});
    return out;
  }
  // Emit matches into one flat row-major buffer, deduplicating head
  // rows at emit time with an open-addressing set over the packed value
  // words: a chain join enumerates every witness path but most project
  // to an already-seen head row, and rows dropped here are rows the
  // final sort never has to touch. FromRowMajor then sorts + bulk
  // transposes the distinct rows (no per-match ordered insertion).
  const std::vector<CompiledJoin::HeadPart>& head_parts = join_->head_parts_;

  // Grouped emission: when head parts [0, p) are variables kLoad-ed from
  // columns [0, p), in order, at an outermost *scan* level (found at
  // compile time), the scan walks its relation in lexicographic row
  // order, so (a) every match sharing a head prefix arrives
  // consecutively and (b) prefix groups arrive in ascending order.
  // Deduplication then needs only a small per-group table over the head
  // suffix (epoch-tagged, so group changes never clear it), and the
  // output assembles already sorted — FromRowMajor's linear sortedness
  // check skips the final sort entirely.
  const size_t p = join_->group_prefix_;
  const size_t sfx = arity - p;
  std::vector<rel::Value> flat;       // final row-major output rows
  std::vector<rel::Value> row(sfx);   // head-suffix scratch
  std::vector<rel::Value> group(p);   // current group's prefix values
  bool have_group = false;
  bool group_inline = true;  // every suffix value has an inline order key
  std::vector<rel::Value> gflat;      // distinct suffix rows, this group
  // Starts small: most rule evaluations emit a handful of rows, and the
  // table doubles whenever a group's rows pass 3/4 of its slots.
  std::vector<uint64_t> gslots(16, 0);
  size_t gmask = gslots.size() - 1;
  uint32_t epoch = 0;  // gslots entry: (epoch << 32) | suffix row index
  std::vector<uint64_t> key_scratch;   // flush: bare order keys
  std::vector<uint32_t> order_scratch; // flush: permutation fallback
  // Independent per-column mixes (rotated golden-ratio products) keep
  // the hash's dependency chain flat — the sink runs once per witness
  // path, so single-digit-ns constants matter here.
  auto row_hash = [sfx](const rel::Value* r) {
    size_t h = 0;
    for (size_t c = 0; c < sfx; ++c) {
      const size_t m = r[c].Hash();
      h ^= (m << (c & 63)) | (m >> ((64 - c) & 63));
    }
    return h;
  };
  // Sorts the current group's distinct suffix rows and appends the
  // (prefix, suffix) rows to `flat`. Group sizes are small, so the sort
  // runs in cache; when every suffix value is an inline int/null the
  // sort runs over bare u64 order keys with no value decoding at all.
  auto flush_group = [&]() {
    if (!have_group) return;
    if (sfx == 0) {
      flat.insert(flat.end(), group.begin(), group.end());
      return;
    }
    const size_t m = gflat.size() / sfx;
    if (m == 0) return;
    const size_t base = flat.size();
    flat.resize(base + m * arity);
    rel::Value* dst = flat.data() + base;
    if (sfx == 1 && group_inline) {
      key_scratch.resize(m);
      for (size_t i = 0; i < m; ++i) {
        key_scratch[i] = gflat[i].InlineOrderKey();
      }
      std::sort(key_scratch.begin(), key_scratch.end());
      for (size_t i = 0; i < m; ++i) {
        for (size_t c = 0; c < p; ++c) *dst++ = group[c];
        *dst++ = rel::Value::FromInlineOrderKey(key_scratch[i]);
      }
      return;
    }
    order_scratch.resize(m);
    for (size_t i = 0; i < m; ++i) {
      order_scratch[i] = static_cast<uint32_t>(i);
    }
    const bool inline_keys = group_inline;
    std::sort(order_scratch.begin(), order_scratch.end(),
              [&gflat, sfx, inline_keys](uint32_t a, uint32_t b) {
                const rel::Value* ra = gflat.data() + size_t{a} * sfx;
                const rel::Value* rb = gflat.data() + size_t{b} * sfx;
                for (size_t c = 0; c < sfx; ++c) {
                  if (inline_keys) {
                    const uint64_t ka = ra[c].InlineOrderKey();
                    const uint64_t kb = rb[c].InlineOrderKey();
                    if (ka != kb) return ka < kb;
                  } else {
                    auto cmp = ra[c] <=> rb[c];
                    if (cmp != std::strong_ordering::equal) return cmp < 0;
                  }
                }
                return false;
              });
    for (uint32_t idx : order_scratch) {
      for (size_t c = 0; c < p; ++c) *dst++ = group[c];
      const rel::Value* src = gflat.data() + size_t{idx} * sfx;
      for (size_t c = 0; c < sfx; ++c) *dst++ = src[c];
    }
  };
  Run(
      main_,
      [&](const std::vector<rel::Value>& regs) {
        bool boundary = !have_group;
        for (size_t c = 0; c < p && !boundary; ++c) {
          boundary = !(regs[head_parts[c].reg] == group[c]);
        }
        if (boundary) {
          flush_group();
          for (size_t c = 0; c < p; ++c) group[c] = regs[head_parts[c].reg];
          have_group = true;
          group_inline = true;
          gflat.clear();
          ++epoch;
          if (sfx == 0) return true;  // prefix-only head: row emitted at flush
        }
        if (sfx == 0) return true;
        for (size_t c = 0; c < sfx; ++c) {
          const CompiledJoin::HeadPart& part = head_parts[p + c];
          row[c] = part.reg >= 0 ? regs[part.reg] : part.constant;
        }
        size_t pos = row_hash(row.data()) & gmask;
        for (;;) {
          const uint64_t slot = gslots[pos];
          if (static_cast<uint32_t>(slot >> 32) != epoch) break;  // free
          const rel::Value* seen =
              gflat.data() + size_t{static_cast<uint32_t>(slot)} * sfx;
          size_t c = 0;
          while (c < sfx && seen[c] == row[c]) ++c;
          if (c == sfx) return true;  // duplicate suffix in this group: drop
          pos = (pos + 1) & gmask;
        }
        const size_t count = gflat.size() / sfx;
        gslots[pos] = (uint64_t{epoch} << 32) | count;
        for (size_t c = 0; c < sfx; ++c) {
          group_inline = group_inline && row[c].HasInlineOrderKey();
        }
        gflat.insert(gflat.end(), row.begin(), row.end());
        if ((count + 1) * 4 > gslots.size() * 3) {  // keep load under 3/4
          std::vector<uint64_t> grown(gslots.size() * 2, 0);
          const size_t m2 = grown.size() - 1;
          for (size_t i = 0; i <= count; ++i) {
            size_t gpos = row_hash(gflat.data() + i * sfx) & m2;
            while (static_cast<uint32_t>(grown[gpos] >> 32) == epoch) {
              gpos = (gpos + 1) & m2;
            }
            grown[gpos] = (uint64_t{epoch} << 32) | i;
          }
          gslots = std::move(grown);
          gmask = m2;
        }
        return true;
      },
      in);
  flush_group();
  return rel::Relation::FromRowMajor(arity, flat);
}

}  // namespace sws::logic::bytecode
