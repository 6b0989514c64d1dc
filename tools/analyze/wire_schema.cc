// WireSchemaPass: recovers the wire format of every message in
// src/core/proto.cc from the Put*/Get* call sequences of its
// Serialize/Deserialize pair, then checks
//
//   1. encode/decode symmetry — both sides agree on field order, widths,
//      repetition, and optionality;
//   2. trailing-optional discipline — no required field may follow an
//      optional one (optional sections only ever extend the tail, guarded
//      by remaining-bytes checks), and conditional encodes must be
//      prefix-compatible across branches;
//   3. the golden snapshot — the recovered schema must match
//      tools/analyze/wire_schema.golden field for field, so any wire
//      change is an explicit, reviewed diff.  Appending `opt` fields is
//      the only legal evolution; anything else is wire-breaking.
//
// The extractor understands the idioms proto.cc restricts itself to:
// straight-line Put/Get calls, counted and range-for loops, if/else-if
// trailing sections, `if (r.AtEnd()) return` guards, free helper
// functions (PutU64s & co), PROPELLER_RETURN_IF_ERROR, and
// nested `x.Serialize(w)` / `T::Deserialize(r, x)` messages.
#include "analyze.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

namespace propeller::analyze {

namespace {

struct Op {
  enum Kind { kField, kMsg };
  Kind kind = kField;
  std::string type;  // u8/u32/u64/i64/double/string, or the message class
  std::string name;
  bool repeated = false;
  bool optional = false;
};

std::string Describe(const Op& op) {
  std::string s;
  if (op.optional) s += "opt ";
  if (op.repeated) s += "rep ";
  if (op.kind == Op::kMsg) s += "msg ";
  s += op.type.empty() ? "?" : op.type;
  if (!op.name.empty()) s += " " + op.name;
  return s;
}

// kind/type/repetition compatibility (names and optionality don't matter
// for branch-prefix checks; empty message types match anything).
bool Compatible(const Op& a, const Op& b) {
  if (a.kind != b.kind || a.repeated != b.repeated) return false;
  if (a.kind == Op::kMsg && (a.type.empty() || b.type.empty())) return true;
  return a.type == b.type;
}

struct SeqResult {
  std::vector<Op> ops;
  bool returns = false;  // every path through the block returns
};

std::string TrimStr(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Cleans a field-name expression: drops casts, `out.` prefixes, ternary
// tails, and whitespace.  `static_cast<uint32_t>(files.size())` ->
// `files.size()`, `out.epoch` -> `epoch`, `drop_group ? 1 : 0` ->
// `drop_group`.
std::string CleanName(std::string s) {
  s = TrimStr(s);
  size_t q = s.find('?');
  if (q != std::string::npos) s = TrimStr(s.substr(0, q));
  const std::string kCast = "static_cast<";
  if (s.compare(0, kCast.size(), kCast) == 0) {
    size_t open = s.find('(');
    if (open != std::string::npos) {
      size_t close = MatchBracket(s, open);
      s = s.substr(open + 1, close - open - 1);
    }
  }
  std::string out;
  for (char c : s) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') out.push_back(c);
  }
  if (out.compare(0, 4, "out.") == 0) out = out.substr(4);
  return out;
}

// Splits a parameter/argument list on top-level commas.
std::vector<std::string> SplitTop(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(TrimStr(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  std::string last = TrimStr(s.substr(start));
  if (!last.empty()) out.push_back(last);
  return out;
}

std::string LastComponent(const std::string& chain) {
  size_t sep = chain.rfind("::");
  return sep == std::string::npos ? chain : chain.substr(sep + 2);
}

class Extractor {
 public:
  Extractor(const SourceFile& f, const FileModel& model,
            std::vector<Finding>* findings)
      : f_(f), findings_(findings) {
    for (const FunctionDef& fd : model.functions) {
      if (fd.class_name.empty() &&
          (fd.params.find("BinaryWriter") != std::string::npos ||
           fd.params.find("BinaryReader") != std::string::npos)) {
        helpers_[fd.name] = &fd;
      }
    }
  }

  bool IsHelper(const std::string& name) const {
    return helpers_.count(name) != 0u;
  }

  // Ops of a message Serialize/Deserialize function.
  SeqResult Parse(const FunctionDef& fd) {
    Renames renames;
    return ParseBlock(fd.body_begin, fd.body_end, renames);
  }

  // Ops of a helper, with formal-parameter names substituted by the
  // call-site argument expressions.
  std::vector<Op> ExpandHelper(const std::string& name,
                               const std::string& args) {
    const FunctionDef* fd = helpers_.at(name);
    auto it = helper_cache_.find(name);
    if (it == helper_cache_.end()) {
      Renames renames;
      it = helper_cache_.emplace(name, ParseBlock(fd->body_begin, fd->body_end,
                                                 renames))
               .first;
    }
    std::vector<std::string> formals;
    for (const std::string& p : SplitTop(fd->params)) {
      size_t e = p.size();
      std::string ident = IdentBefore(p, e);
      formals.push_back(ident);
    }
    std::vector<std::string> actuals = SplitTop(args);
    std::vector<Op> ops = it->second.ops;
    for (Op& op : ops) {
      for (size_t i = 0; i < formals.size() && i < actuals.size(); ++i) {
        if (formals[i].empty()) continue;
        if (op.name == formals[i]) {
          op.name = CleanName(actuals[i]);
        } else if (op.name.compare(0, formals[i].size() + 1,
                                   formals[i] + ".") == 0) {
          op.name = CleanName(actuals[i]) + op.name.substr(formals[i].size());
        }
      }
    }
    return ops;
  }

 private:
  using Renames = std::vector<std::pair<std::string, std::string>>;

  void Report(size_t off, const std::string& msg) {
    if (f_.Allowed("wire", off)) return;
    findings_->push_back({f_.path, f_.LineOf(off), "wire", msg, true});
  }

  size_t SkipWs(size_t i, size_t end) const {
    while (i < end && std::isspace(static_cast<unsigned char>(f_.code[i]))) ++i;
    return i;
  }

  // Parses one branch body starting at `i` (either `{...}` or a single
  // statement up to `;`).  Returns past-the-end offset.
  size_t ParseBranch(size_t i, size_t end, const Renames& renames,
                     SeqResult* out) {
    i = SkipWs(i, end);
    if (i < end && f_.code[i] == '{') {
      size_t close = MatchBracket(f_.code, i);
      *out = ParseBlock(i + 1, close, renames);
      return close + 1;
    }
    // Single statement: up to the ';' at depth 0.
    size_t j = i;
    while (j < end) {
      char c = f_.code[j];
      if (c == '(' || c == '{' || c == '[') {
        j = MatchBracket(f_.code, j) + 1;
        continue;
      }
      if (c == ';') break;
      ++j;
    }
    *out = ParseBlock(i, std::min(j + 1, end), renames);
    return std::min(j + 1, end);
  }

  static void MarkOptional(std::vector<Op>& ops) {
    for (Op& op : ops) op.optional = true;
  }

  // Merges alternative branch sequences: every branch must be a prefix of
  // the longest one; the merge is the longest branch with every op
  // optional (unless there is exactly one alternative).
  std::vector<Op> MergeAlternatives(const std::vector<std::vector<Op>>& alts,
                                    size_t off) {
    size_t longest = 0;
    for (size_t i = 1; i < alts.size(); ++i) {
      if (alts[i].size() > alts[longest].size()) longest = i;
    }
    for (size_t i = 0; i < alts.size(); ++i) {
      if (i == longest) continue;
      bool ok = alts[i].size() <= alts[longest].size();
      for (size_t k = 0; ok && k < alts[i].size(); ++k) {
        ok = Compatible(alts[i][k], alts[longest][k]);
      }
      if (!ok) {
        Report(off,
               "conditional encode/decode branches are not prefix-compatible "
               "(trailing-optional discipline requires every branch to be a "
               "prefix of the longest one)");
      }
    }
    std::vector<Op> merged = alts[longest];
    bool all_same = true;
    for (const auto& a : alts) all_same = all_same && a.size() == merged.size();
    if (!all_same || alts.size() > 1) {
      // More than one distinct path: everything merged is conditional.
      bool identical = true;
      for (const auto& a : alts) identical = identical && a.size() == merged.size();
      if (!identical) MarkOptional(merged);
      else if (alts.size() > 1 && merged.size() > 0) {
        // Same length on every branch still means the values differ per
        // branch, but presence is unconditional only if k == 1.
        if (alts.size() > 1) {
          bool any_shorter = false;
          for (const auto& a : alts) any_shorter |= a.size() < merged.size();
          if (any_shorter) MarkOptional(merged);
        }
      }
    }
    // Presence is conditional whenever some alternative lacks the op.
    for (size_t k = 0; k < merged.size(); ++k) {
      for (const auto& a : alts) {
        if (k >= a.size()) merged[k].optional = true;
      }
    }
    return merged;
  }

  SeqResult ParseBlock(size_t begin, size_t end, const Renames& renames) {
    SeqResult result;
    size_t i = begin;
    while (i < end) {
      i = SkipWs(i, end);
      if (i >= end) break;
      char c = f_.code[i];
      if (c == ';' || c == '}') {
        ++i;
        continue;
      }
      if (c == '{') {  // bare scope
        size_t close = MatchBracket(f_.code, i);
        SeqResult sub = ParseBlock(i + 1, close, renames);
        for (Op& op : sub.ops) result.ops.push_back(op);
        if (sub.returns) {
          result.returns = true;
          return result;
        }
        i = close + 1;
        continue;
      }
      // Loops.
      if (WordAt(f_.code, i, "for") || WordAt(f_.code, i, "while")) {
        size_t open = f_.code.find('(', i);
        size_t close = MatchBracket(f_.code, open);
        std::string head = f_.code.substr(open + 1, close - open - 1);
        Renames sub_renames = renames;
        // Range-for: rename the loop variable to the container so field
        // names in the golden schema read as the struct member.
        int depth = 0;
        size_t colon = std::string::npos;
        for (size_t k = 0; k < head.size(); ++k) {
          char h = head[k];
          if (h == '(' || h == '[' || h == '{' || h == '<') ++depth;
          if (h == ')' || h == ']' || h == '}' || h == '>') --depth;
          if (h == ':' && depth == 0 &&
              (k + 1 >= head.size() || head[k + 1] != ':') &&
              (k == 0 || head[k - 1] != ':')) {
            colon = k;
            break;
          }
        }
        if (colon != std::string::npos) {
          std::string var = IdentBefore(head, colon);
          std::string container = CleanName(head.substr(colon + 1));
          if (!var.empty()) sub_renames.emplace_back(var, container);
        }
        SeqResult body;
        i = ParseBranch(close + 1, end, sub_renames, &body);
        for (Op& op : body.ops) {
          op.repeated = true;
          result.ops.push_back(op);
        }
        continue;
      }
      // Conditionals.
      if (WordAt(f_.code, i, "if")) {
        size_t cond_off = i;
        std::vector<SeqResult> branches;
        bool has_else = false;
        for (;;) {
          size_t open = f_.code.find('(', i);
          size_t close = MatchBracket(f_.code, open);
          SeqResult br;
          i = ParseBranch(close + 1, end, renames, &br);
          branches.push_back(std::move(br));
          size_t j = SkipWs(i, end);
          if (j < end && WordAt(f_.code, j, "else")) {
            j = SkipWs(j + 4, end);
            if (j < end && WordAt(f_.code, j, "if")) {
              i = j;
              continue;  // else-if: next condition
            }
            has_else = true;
            SeqResult br2;
            i = ParseBranch(j, end, renames, &br2);
            branches.push_back(std::move(br2));
          }
          break;
        }
        bool any_returns = false;
        for (const SeqResult& b : branches) any_returns |= b.returns;
        if (!any_returns) {
          std::vector<std::vector<Op>> alts;
          for (const SeqResult& b : branches) alts.push_back(b.ops);
          if (!has_else) alts.push_back({});
          std::vector<Op> merged = MergeAlternatives(alts, cond_off);
          for (Op& op : merged) result.ops.push_back(op);
          continue;
        }
        // Some branch returns: the remainder of the block is the
        // continuation of the non-returning paths.  Alternatives are
        // `branch` (terminated) vs `branch + rest`.
        SeqResult rest = ParseBlock(i, end, renames);
        std::vector<std::vector<Op>> alts;
        bool all_return = true;
        for (const SeqResult& b : branches) {
          std::vector<Op> path = b.ops;
          if (!b.returns) {
            path.insert(path.end(), rest.ops.begin(), rest.ops.end());
            all_return = all_return && rest.returns;
          }

          alts.push_back(std::move(path));
        }
        if (!has_else) {
          std::vector<Op> path = rest.ops;
          alts.push_back(std::move(path));
          all_return = all_return && rest.returns;
        }
        result.ops = [&] {
          std::vector<Op> merged = MergeAlternatives(alts, cond_off);
          std::vector<Op> out = result.ops;
          out.insert(out.end(), merged.begin(), merged.end());
          return out;
        }();
        result.returns = all_return;
        return result;
      }
      // switch: conservative — everything inside is conditional.
      if (WordAt(f_.code, i, "switch")) {
        size_t open = f_.code.find('(', i);
        size_t close = MatchBracket(f_.code, open);
        SeqResult body;
        i = ParseBranch(close + 1, end, renames, &body);
        for (Op& op : body.ops) {
          op.optional = true;
          result.ops.push_back(op);
        }
        continue;
      }
      // return <expr>;
      if (WordAt(f_.code, i, "return")) {
        size_t semi = StatementEnd(i, end);
        ExtractOps(i + 6, semi, renames, result.ops);
        result.returns = true;
        return result;
      }
      // Plain statement.
      size_t semi = StatementEnd(i, end);
      ExtractOps(i, semi, renames, result.ops);
      i = semi + 1;
    }
    return result;
  }

  size_t StatementEnd(size_t i, size_t end) const {
    size_t j = i;
    while (j < end) {
      char c = f_.code[j];
      if (c == '(' || c == '{' || c == '[') {
        j = MatchBracket(f_.code, j) + 1;
        continue;
      }
      if (c == ';') return j;
      ++j;
    }
    return end;
  }

  void ApplyRenames(const Renames& renames, Op& op) const {
    // Apply innermost (latest) renames first.
    for (auto it = renames.rbegin(); it != renames.rend(); ++it) {
      const auto& [var, container] = *it;
      if (op.name == var) {
        op.name = container;
      } else if (op.name.compare(0, var.size() + 1, var + ".") == 0) {
        op.name = container + op.name.substr(var.size());
      }
    }
  }

  // Scans one expression statement for Put/Get/Serialize/Deserialize and
  // helper calls, appending ops in call order.
  void ExtractOps(size_t begin, size_t end, const Renames& renames,
                  std::vector<Op>& out) {
    const std::string& code = f_.code;
    for (size_t i = begin; i < end; ++i) {
      // <obj>.Put<T>( / <obj>.Get<T>(
      if (code[i] == '.' && i + 4 < end &&
          (code.compare(i + 1, 3, "Put") == 0 ||
           code.compare(i + 1, 3, "Get") == 0) &&
          std::isupper(static_cast<unsigned char>(code[i + 4]))) {
        size_t tb = i + 4;
        size_t te = tb;
        while (te < end && IsIdentChar(code[te])) ++te;
        size_t open = SkipWsConst(te, end);
        if (open >= end || code[open] != '(') continue;
        size_t close = MatchBracket(code, open);
        std::string type = code.substr(tb, te - tb);
        std::string lower;
        if (type == "U8") lower = "u8";
        else if (type == "U32") lower = "u32";
        else if (type == "U64") lower = "u64";
        else if (type == "I64") lower = "i64";
        else if (type == "Double") lower = "double";
        else if (type == "String") lower = "string";
        else { i = close; continue; }  // Reserve, PutVector internals, ...
        Op op;
        op.kind = Op::kField;
        op.type = lower;
        std::vector<std::string> args =
            SplitTop(code.substr(open + 1, close - open - 1));
        if (!args.empty()) op.name = CleanName(args[0]);
        ApplyRenames(renames, op);
        out.push_back(std::move(op));
        i = close;
        continue;
      }
      // <obj>.Serialize(w)
      if (code[i] == '.' && WordAt(code, i + 1, "Serialize")) {
        size_t open = SkipWsConst(i + 10, end);
        if (open >= end || code[open] != '(') continue;
        size_t close = MatchBracket(code, open);
        Op op;
        op.kind = Op::kMsg;
        op.name = CleanName(ChainIdentBefore(i));
        ApplyRenames(renames, op);
        out.push_back(std::move(op));
        i = close;
        continue;
      }
      // <Type>::Deserialize(r, dest)
      if (code[i] == ':' && i + 1 < end && code[i + 1] == ':' &&
          WordAt(code, i + 2, "Deserialize")) {
        size_t open = SkipWsConst(i + 13, end);
        if (open >= end || code[open] != '(') continue;
        size_t close = MatchBracket(code, open);
        Op op;
        op.kind = Op::kMsg;
        op.type = LastComponent(ChainIdentBefore(i));
        std::vector<std::string> args =
            SplitTop(code.substr(open + 1, close - open - 1));
        if (args.size() >= 2) op.name = CleanName(args[1]);
        ApplyRenames(renames, op);
        out.push_back(std::move(op));
        i = close;
        continue;
      }
      // Helper call: Name(args) with Name a free put/get helper.
      if (IsIdentChar(code[i]) && (i == begin || !IsIdentChar(code[i - 1]))) {
        size_t e = i;
        while (e < end && IsIdentChar(code[e])) ++e;
        std::string name = code.substr(i, e - i);
        bool qualified = i >= 2 && code[i - 1] == ':' && code[i - 2] == ':';
        bool member = i >= 1 && (code[i - 1] == '.' ||
                                 (i >= 2 && code.compare(i - 2, 2, "->") == 0));
        size_t open = SkipWsConst(e, end);
        if (!qualified && !member && helpers_.count(name) != 0u &&
            open < end && code[open] == '(') {
          size_t close = MatchBracket(code, open);
          std::vector<Op> ops =
              ExpandHelper(name, code.substr(open + 1, close - open - 1));
          for (Op& op : ops) {
            ApplyRenames(renames, op);
            out.push_back(op);
          }
          i = close;
          continue;
        }
        i = e - 1;
        continue;
      }
    }
  }

  size_t SkipWsConst(size_t i, size_t end) const {
    while (i < end && std::isspace(static_cast<unsigned char>(f_.code[i]))) ++i;
    return i;
  }

  // The `a.b->c` / `ns::Type` chain ending at `pos` (exclusive).
  std::string ChainIdentBefore(size_t pos) const {
    const std::string& code = f_.code;
    size_t e = pos;
    size_t b = e;
    for (;;) {
      size_t ident = b;
      while (ident > 0 && IsIdentChar(code[ident - 1])) --ident;
      if (ident == b) break;
      b = ident;
      if (b >= 2 && code[b - 1] == ':' && code[b - 2] == ':') {
        b -= 2;
        continue;
      }
      if (b >= 1 && code[b - 1] == '.') {
        b -= 1;
        continue;
      }
      if (b >= 2 && code.compare(b - 2, 2, "->") == 0) {
        b -= 2;
        continue;
      }
      break;
    }
    return code.substr(b, e - b);
  }

  const SourceFile& f_;
  std::vector<Finding>* findings_;
  std::map<std::string, const FunctionDef*> helpers_;
  std::map<std::string, SeqResult> helper_cache_;
};

// Flags required-after-optional violations within one flattened sequence.
void CheckDiscipline(const SourceFile& f, const FunctionDef& fd,
                     const std::vector<Op>& ops,
                     std::vector<Finding>* findings) {
  bool saw_optional = false;
  for (const Op& op : ops) {
    if (op.optional) {
      saw_optional = true;
    } else if (saw_optional) {
      if (f.Allowed("wire", fd.sig_off)) return;
      findings->push_back(
          {f.path, f.LineOf(fd.sig_off), "wire",
           fd.class_name + "::" + fd.name + ": required field '" +
               Describe(op) +
               "' follows an optional one — new wire fields must be "
               "appended as trailing optionals, never inserted mid-message",
           true});
      return;
    }
  }
}

struct Schema {
  // message name -> field lines (schema text without indentation).
  std::map<std::string, std::vector<std::string>> messages;
};

std::string RenderSchema(const Schema& s) {
  std::ostringstream out;
  out << "# propeller wire schema snapshot — generated by propeller_analyze "
         "--update-golden.\n";
  out << "# Field order IS the wire format.  Legal evolution: append `opt` "
         "fields only;\n";
  out << "# deleting, reordering, retyping, or inserting fields is "
         "wire-breaking.\n";
  for (const auto& [name, fields] : s.messages) {
    out << "message " << name << "\n";
    for (const std::string& fld : fields) out << "  " << fld << "\n";
  }
  return out.str();
}

bool ParseGolden(const std::string& text, Schema* out) {
  std::istringstream in(text);
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, 8, "message ") == 0) {
      current = TrimStr(line.substr(8));
      out->messages[current];  // messages may be field-less
      continue;
    }
    if (current.empty()) return false;
    out->messages[current].push_back(TrimStr(line));
  }
  return true;
}

void DiffMessage(const std::string& name, const std::vector<std::string>& want,
                 const std::vector<std::string>& got, const SourceFile& f,
                 std::vector<Finding>* findings) {
  if (want == got) return;
  // Appended trailing optionals are the one legal evolution — still a
  // failure (the snapshot must be refreshed deliberately), but say so.
  bool legal_extension = got.size() > want.size();
  for (size_t i = 0; legal_extension && i < want.size(); ++i) {
    legal_extension = want[i] == got[i];
  }
  for (size_t i = want.size(); legal_extension && i < got.size(); ++i) {
    legal_extension = got[i].compare(0, 4, "opt ") == 0;
  }
  std::ostringstream msg;
  if (legal_extension) {
    msg << "message " << name << " gained " << (got.size() - want.size())
        << " trailing-optional field(s) — legal evolution; refresh the "
           "snapshot with --update-golden:";
  } else {
    msg << "WIRE-BREAKING change in message " << name
        << " (golden -> source):";
  }
  size_t n = std::max(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    std::string w = i < want.size() ? want[i] : "(absent)";
    std::string g = i < got.size() ? got[i] : "(absent)";
    if (w == g) continue;
    msg << "\n    field " << i << ": " << w << "  ->  " << g;
  }
  findings->push_back({f.path, 1, "wire", msg.str(), true});
}

}  // namespace

std::string RunWireSchemaPass(const Options& opt, const SourceFile& proto,
                              std::vector<Finding>* findings) {
  FileModel model = BuildModel(proto);
  Extractor ex(proto, model, findings);

  struct Pair {
    const FunctionDef* enc = nullptr;
    const FunctionDef* dec = nullptr;
  };
  std::map<std::string, Pair> pairs;
  for (const FunctionDef& fd : model.functions) {
    if (fd.class_name.empty()) continue;
    if (fd.name == "Serialize") pairs[fd.class_name].enc = &fd;
    if (fd.name == "Deserialize") pairs[fd.class_name].dec = &fd;
  }

  Schema schema;
  for (const auto& [name, pair] : pairs) {
    if (pair.enc == nullptr || pair.dec == nullptr) {
      const FunctionDef* have = pair.enc != nullptr ? pair.enc : pair.dec;
      findings->push_back(
          {proto.path, proto.LineOf(have->sig_off), "wire",
           "message " + name + " has " +
               (pair.enc != nullptr ? std::string("Serialize")
                                    : std::string("Deserialize")) +
               " but no matching " +
               (pair.enc != nullptr ? std::string("Deserialize")
                                    : std::string("Serialize")),
           true});
      continue;
    }
    SeqResult enc = ex.Parse(*pair.enc);
    SeqResult dec = ex.Parse(*pair.dec);
    CheckDiscipline(proto, *pair.enc, enc.ops, findings);
    CheckDiscipline(proto, *pair.dec, dec.ops, findings);

    // Encode/decode symmetry.
    size_t n = std::max(enc.ops.size(), dec.ops.size());
    for (size_t i = 0; i < n; ++i) {
      if (i >= enc.ops.size() || i >= dec.ops.size()) {
        const bool enc_short = enc.ops.size() < dec.ops.size();
        findings->push_back(
            {proto.path,
             proto.LineOf(enc_short ? pair.enc->sig_off : pair.dec->sig_off),
             "wire",
             name + ": encode writes " + std::to_string(enc.ops.size()) +
                 " field(s) but decode reads " +
                 std::to_string(dec.ops.size()) + " — first unmatched: '" +
                 Describe(enc_short ? dec.ops[i] : enc.ops[i]) + "'",
             true});
        break;
      }
      const Op& e = enc.ops[i];
      const Op& d = dec.ops[i];
      if (!Compatible(e, d) || e.optional != d.optional) {
        findings->push_back(
            {proto.path, proto.LineOf(pair.enc->sig_off), "wire",
             name + ": field " + std::to_string(i) +
                 " mismatch — encode '" + Describe(e) + "' vs decode '" +
                 Describe(d) + "'",
             true});
      }
    }

    // Canonical schema: decode supplies message types the encode side
    // cannot see; encode supplies the better field names.
    std::vector<std::string> fields;
    for (size_t i = 0; i < enc.ops.size(); ++i) {
      Op op = enc.ops[i];
      if (i < dec.ops.size()) {
        if (op.type.empty()) op.type = dec.ops[i].type;
        if (op.name.empty()) op.name = dec.ops[i].name;
      }
      fields.push_back(Describe(op));
    }
    schema.messages[name] = std::move(fields);
  }

  std::string rendered = RenderSchema(schema);

  if (!opt.golden.empty()) {
    if (opt.update_golden) {
      std::ofstream out(opt.golden, std::ios::binary | std::ios::trunc);
      out << rendered;
    } else {
      std::ifstream in(opt.golden, std::ios::binary);
      if (!in) {
        findings->push_back({opt.golden, 1, "wire",
                             "golden schema snapshot missing — run "
                             "propeller_analyze --update-golden to create it",
                             true});
      } else {
        std::ostringstream buf;
        buf << in.rdbuf();
        Schema golden;
        if (!ParseGolden(buf.str(), &golden)) {
          findings->push_back(
              {opt.golden, 1, "wire", "golden schema snapshot is malformed",
               true});
        } else {
          for (const auto& [name, fields] : golden.messages) {
            auto it = schema.messages.find(name);
            if (it == schema.messages.end()) {
              findings->push_back(
                  {proto.path, 1, "wire",
                   "message " + name +
                       " removed (still present in the golden snapshot) — "
                       "deleting a wire message is wire-breaking",
                   true});
              continue;
            }
            DiffMessage(name, fields, it->second, proto, findings);
          }
          for (const auto& [name, fields] : schema.messages) {
            (void)fields;
            if (golden.messages.count(name) == 0u) {
              findings->push_back(
                  {proto.path, 1, "wire",
                   "message " + name +
                       " is not in the golden snapshot — record it with "
                       "--update-golden",
                   true});
            }
          }
        }
      }
    }
  }
  return rendered;
}

}  // namespace propeller::analyze
