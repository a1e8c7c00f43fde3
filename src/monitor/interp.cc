#include "monitor/interp.h"

#include <cctype>
#include <cstdlib>

#include "fs/glob.h"
#include "fs/path.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace sash::monitor {

namespace {

using syntax::Command;
using syntax::CommandKind;
using syntax::ListOp;
using syntax::ParamOp;
using syntax::Word;
using syntax::WordPart;
using syntax::WordPartKind;

// POSIX pattern removal (shared shape with the symbolic engine's concrete
// path; duplicated to keep the modules independent).
std::string RemovePattern(const std::string& value, const std::string& pattern, bool suffix,
                          bool largest) {
  size_t n = value.size();
  if (suffix) {
    if (largest) {
      for (size_t k = 0; k <= n; ++k) {
        if (fs::GlobMatch(pattern, std::string_view(value).substr(k))) {
          return value.substr(0, k);
        }
      }
    } else {
      for (size_t k = n;; --k) {
        if (fs::GlobMatch(pattern, std::string_view(value).substr(k))) {
          return value.substr(0, k);
        }
        if (k == 0) {
          break;
        }
      }
    }
  } else {
    if (largest) {
      for (size_t k = n;; --k) {
        if (fs::GlobMatch(pattern, std::string_view(value).substr(0, k))) {
          return value.substr(k);
        }
        if (k == 0) {
          break;
        }
      }
    } else {
      for (size_t k = 0; k <= n; ++k) {
        if (fs::GlobMatch(pattern, std::string_view(value).substr(0, k))) {
          return value.substr(k);
        }
      }
    }
  }
  return value;
}

}  // namespace

Interpreter::Interpreter(fs::FileSystem* fs, InterpOptions options)
    : fs_(fs), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    commands_counter_ = options_.metrics->counter("monitor.commands_executed");
    guard_blocks_counter_ = options_.metrics->counter("monitor.guard_blocks");
    guard_latency_ns_ = options_.metrics->histogram("monitor.guard_check_ns");
  }
  vars_["HOME"] = "/home/user";
  vars_["PATH"] = "/usr/local/bin:/usr/bin:/bin";
  vars_["PWD"] = fs_->cwd();
}

bool Interpreter::InvokeGuard(const std::vector<std::string>& argv,
                              const std::vector<std::string>& pre_glob, std::string* reason) {
  if (!command_hook_) {
    return true;
  }
  if (guard_latency_ns_ == nullptr) {
    return command_hook_(argv, pre_glob, reason);
  }
  obs::StopWatch watch;
  bool ok = command_hook_(argv, pre_glob, reason);
  guard_latency_ns_->Observe(watch.ElapsedNanos());
  if (!ok && guard_blocks_counter_ != nullptr) {
    guard_blocks_counter_->Add(1);
  }
  return ok;
}

InterpResult Interpreter::Run(const syntax::Program& program) {
  fs_->ClearTrace();
  ExecContext ctx;
  ctx.stdin_data = options_.stdin_data;
  int code = ExecProgram(program, ctx);
  InterpResult result;
  result.exit_code = code;
  result.out = std::move(out_);
  result.err = std::move(err_);
  result.budget_exceeded = steps_ >= options_.max_steps;
  result.steps = steps_;
  if (aborted_ && !abort_reason_.empty()) {
    result.err += "sash-monitor: " + abort_reason_ + "\n";
  } else if (result.budget_exceeded) {
    // Surface the truncation explicitly instead of silently returning the
    // last exit code (analysis-incomplete taxonomy, see DESIGN.md).
    result.err += "sash-monitor: analysis-incomplete: step budget (" +
                  std::to_string(options_.max_steps) +
                  ") exhausted; execution truncated\n";
  }
  return result;
}

void Interpreter::Emit(const ExecContext& ctx, std::string text) {
  std::string& sink = ctx.out != nullptr ? *ctx.out : out_;
  if (sink.empty()) {
    sink = std::move(text);
  } else {
    sink += text;
  }
}

void Interpreter::EmitErr(const std::string& text) { err_ += text; }

int Interpreter::ExecProgram(const syntax::Program& program, ExecContext ctx) {
  if (program.body == nullptr) {
    return 0;
  }
  return ExecCommand(*program.body, ctx);
}

int Interpreter::ExecCommand(const Command& cmd, ExecContext ctx) {
  if (aborted_ || exited_ || ++steps_ > options_.max_steps) {
    return last_exit_;
  }
  if (options_.cancel != nullptr && options_.cancel->CheckStep()) {
    aborted_ = true;
    abort_reason_ = "analysis-incomplete: cancelled (" +
                    std::string(util::CancelReasonName(options_.cancel->reason())) +
                    "); execution truncated";
    return last_exit_;
  }
  switch (cmd.kind) {
    case CommandKind::kSimple:
      return ExecSimple(cmd, ctx);
    case CommandKind::kPipeline:
      return ExecPipeline(cmd, ctx);
    case CommandKind::kList:
      return ExecList(cmd, ctx);
    case CommandKind::kSubshell: {
      // Variable and cwd isolation; FS effects persist.
      std::map<std::string, std::string> saved_vars = vars_;
      std::string saved_cwd = fs_->cwd();
      int code = cmd.subshell.body != nullptr ? ExecCommand(*cmd.subshell.body, ctx) : 0;
      vars_ = std::move(saved_vars);
      fs_->ChangeDir(saved_cwd);
      exited_ = false;  // `exit` only leaves the subshell.
      last_exit_ = code;
      return code;
    }
    case CommandKind::kBraceGroup:
      return cmd.brace.body != nullptr ? ExecCommand(*cmd.brace.body, ctx) : 0;
    case CommandKind::kIf: {
      int cond = cmd.if_cmd.condition != nullptr ? ExecCommand(*cmd.if_cmd.condition, ctx) : 1;
      if (exited_ || aborted_) {
        return cond;
      }
      if (cond == 0) {
        last_exit_ =
            cmd.if_cmd.then_body != nullptr ? ExecCommand(*cmd.if_cmd.then_body, ctx) : 0;
      } else if (cmd.if_cmd.else_body != nullptr) {
        last_exit_ = ExecCommand(*cmd.if_cmd.else_body, ctx);
      } else {
        last_exit_ = 0;
      }
      return last_exit_;
    }
    case CommandKind::kLoop: {
      int code = 0;
      while (!aborted_ && !exited_ && steps_ < options_.max_steps) {
        int cond =
            cmd.loop.condition != nullptr ? ExecCommand(*cmd.loop.condition, ctx) : 1;
        bool enter = cmd.loop.until ? cond != 0 : cond == 0;
        if (!enter || exited_ || aborted_) {
          break;
        }
        if (cmd.loop.body != nullptr) {
          code = ExecCommand(*cmd.loop.body, ctx);
        }
      }
      last_exit_ = code;
      return code;
    }
    case CommandKind::kFor: {
      std::vector<std::string> items;
      if (cmd.for_cmd.has_in) {
        for (const Word& w : cmd.for_cmd.words) {
          for (std::string& field : ExpandWord(w)) {
            items.push_back(std::move(field));
          }
        }
      } else {
        items = options_.args;
      }
      int code = 0;
      for (const std::string& item : items) {
        if (aborted_ || exited_ || steps_ >= options_.max_steps) {
          break;
        }
        vars_[cmd.for_cmd.var] = item;
        if (cmd.for_cmd.body != nullptr) {
          code = ExecCommand(*cmd.for_cmd.body, ctx);
        }
      }
      last_exit_ = code;
      return code;
    }
    case CommandKind::kCase: {
      std::vector<std::string> subject_fields = ExpandWord(cmd.case_cmd.subject);
      std::string subject = Join(subject_fields, " ");
      for (const syntax::CaseItem& item : cmd.case_cmd.items) {
        for (const Word& pat : item.patterns) {
          // Patterns expand without glob expansion; glob chars stay pattern
          // characters.
          std::string pattern = ExpandParts(pat.parts);
          if (fs::GlobMatch(pattern, subject)) {
            last_exit_ = item.body != nullptr ? ExecCommand(*item.body, ctx) : 0;
            return last_exit_;
          }
        }
      }
      last_exit_ = 0;
      return 0;
    }
    case CommandKind::kFunctionDef:
      functions_[cmd.function.name] = cmd.function.body;
      last_exit_ = 0;
      return 0;
  }
  return last_exit_;
}

int Interpreter::ExecList(const Command& cmd, ExecContext ctx) {
  int code = last_exit_;
  for (size_t i = 0; i < cmd.list.commands.size(); ++i) {
    if (aborted_ || exited_) {
      break;
    }
    if (i > 0) {
      ListOp prev = cmd.list.ops[i - 1];
      if (prev == ListOp::kAnd && code != 0) {
        continue;
      }
      if (prev == ListOp::kOr && code == 0) {
        continue;
      }
    }
    code = ExecCommand(*cmd.list.commands[i], ctx);
  }
  last_exit_ = code;
  return code;
}

int Interpreter::ExecPipeline(const Command& cmd, ExecContext ctx) {
  std::string data;  // The previous stage's output, moved on as the next stdin.
  int code = 0;
  for (size_t i = 0; i < cmd.pipeline.commands.size(); ++i) {
    if (aborted_ || exited_) {
      break;
    }
    ExecContext stage_ctx;
    stage_ctx.stdin_data = i == 0 ? ctx.stdin_data : std::string_view(data);
    std::string stage_out;
    bool last = i + 1 == cmd.pipeline.commands.size();
    stage_ctx.out = &stage_out;
    code = ExecCommand(*cmd.pipeline.commands[i], stage_ctx);
    // Monitor hook: everything crossing this pipe boundary, in one call.
    if (pipe_boundary_hook_ && !last) {
      std::string reason;
      if (!pipe_boundary_hook_(static_cast<int>(i), stage_out, &reason)) {
        aborted_ = true;
        abort_reason_ = reason;
        last_exit_ = 1;
        return 1;
      }
    }
    if (last) {
      Emit(ctx, std::move(stage_out));
    } else {
      data = std::move(stage_out);
    }
  }
  if (cmd.pipeline.negated) {
    code = code == 0 ? 1 : 0;
  }
  last_exit_ = code;
  return code;
}

std::string Interpreter::LookupVar(const std::string& name) const {
  if (name == "?") {
    return std::to_string(last_exit_);
  }
  if (name == "#") {
    return std::to_string(options_.args.size());
  }
  if (name == "0") {
    return options_.script_name;
  }
  if (name == "$") {
    return "4242";
  }
  if (name == "@" || name == "*") {
    return Join(options_.args, " ");
  }
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    size_t idx = static_cast<size_t>(std::atoi(name.c_str()));
    if (idx >= 1 && idx <= options_.args.size()) {
      return options_.args[idx - 1];
    }
    return "";
  }
  if (name == "PWD") {
    return fs_->cwd();
  }
  auto it = vars_.find(name);
  return it == vars_.end() ? "" : it->second;
}

std::string Interpreter::ExpandParam(const WordPart& part) {
  std::string value = LookupVar(part.param_name);
  bool is_set = vars_.count(part.param_name) > 0 ||
                part.param_name == "?" || part.param_name == "#" || part.param_name == "0" ||
                part.param_name == "PWD" || part.param_name == "$" ||
                (!part.param_name.empty() &&
                 std::isdigit(static_cast<unsigned char>(part.param_name[0])) &&
                 static_cast<size_t>(std::atoi(part.param_name.c_str())) <=
                     options_.args.size() &&
                 std::atoi(part.param_name.c_str()) >= 1);
  auto arg = [&]() {
    return part.param_arg != nullptr ? ExpandParts(part.param_arg->parts) : std::string();
  };
  bool null_or_unset = !is_set || (part.param_colon && value.empty());
  switch (part.param_op) {
    case ParamOp::kPlain:
      return value;
    case ParamOp::kDefault:
      return null_or_unset ? arg() : value;
    case ParamOp::kAssignDefault:
      if (null_or_unset) {
        value = arg();
        vars_[part.param_name] = value;
      }
      return value;
    case ParamOp::kErrorIfUnset:
      if (null_or_unset) {
        std::string message = arg();
        EmitErr("sh: " + part.param_name + ": " +
                (message.empty() ? "parameter null or not set" : message) + "\n");
        exited_ = true;
        last_exit_ = 1;
        return "";
      }
      return value;
    case ParamOp::kAlternative:
      return null_or_unset ? "" : arg();
    case ParamOp::kRemSmallSuffix:
      return RemovePattern(value, arg(), /*suffix=*/true, /*largest=*/false);
    case ParamOp::kRemLargeSuffix:
      return RemovePattern(value, arg(), /*suffix=*/true, /*largest=*/true);
    case ParamOp::kRemSmallPrefix:
      return RemovePattern(value, arg(), /*suffix=*/false, /*largest=*/false);
    case ParamOp::kRemLargePrefix:
      return RemovePattern(value, arg(), /*suffix=*/false, /*largest=*/true);
    case ParamOp::kLength:
      return std::to_string(value.size());
  }
  return value;
}

long Interpreter::EvalArith(const std::string& expr) {
  // Substitute variables, then evaluate + - * / % ( ).
  struct P {
    const std::string& s;
    Interpreter* in;
    size_t i = 0;
    void Ws() {
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
    }
    long Prim() {
      Ws();
      if (i < s.size() && s[i] == '(') {
        ++i;
        long v = Expr();
        Ws();
        if (i < s.size() && s[i] == ')') {
          ++i;
        }
        return v;
      }
      if (i < s.size() && s[i] == '-') {
        ++i;
        return -Prim();
      }
      if (i < s.size() && s[i] == '$') {
        ++i;
      }
      if (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        long v = 0;
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
          v = v * 10 + (s[i++] - '0');
        }
        return v;
      }
      if (i < s.size() && (std::isalpha(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
        std::string name;
        while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
          name += s[i++];
        }
        return std::atol(in->LookupVar(name).c_str());
      }
      ++i;
      return 0;
    }
    long Term() {
      long v = Prim();
      while (true) {
        Ws();
        if (i < s.size() && (s[i] == '*' || s[i] == '/' || s[i] == '%')) {
          char op = s[i++];
          long r = Prim();
          if ((op == '/' || op == '%') && r == 0) {
            return 0;
          }
          v = op == '*' ? v * r : op == '/' ? v / r : v % r;
        } else {
          return v;
        }
      }
    }
    long Expr() {
      long v = Term();
      while (true) {
        Ws();
        if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
          char op = s[i++];
          long r = Term();
          v = op == '+' ? v + r : v - r;
        } else {
          return v;
        }
      }
    }
  };
  P p{expr, this};
  return p.Expr();
}

std::string Interpreter::ExpandParts(const std::vector<WordPart>& parts) {
  std::string out;
  for (const WordPart& p : parts) {
    switch (p.kind) {
      case WordPartKind::kLiteral:
      case WordPartKind::kSingleQuoted:
        out += p.text;
        break;
      case WordPartKind::kDoubleQuoted:
        out += ExpandParts(p.children);
        break;
      case WordPartKind::kParam:
        out += ExpandParam(p);
        break;
      case WordPartKind::kCommandSub: {
        std::string captured;
        ExecContext sub_ctx;
        sub_ctx.out = &captured;
        if (p.command != nullptr) {
          // Substitutions run in a subshell.
          std::map<std::string, std::string> saved_vars = vars_;
          std::string saved_cwd = fs_->cwd();
          last_exit_ = ExecProgram(*p.command, sub_ctx);
          vars_ = std::move(saved_vars);
          fs_->ChangeDir(saved_cwd);
          exited_ = false;
        }
        while (!captured.empty() && captured.back() == '\n') {
          captured.pop_back();
        }
        out += captured;
        break;
      }
      case WordPartKind::kArith:
        out += std::to_string(EvalArith(p.text));
        break;
      case WordPartKind::kGlobStar:
        out += '*';
        break;
      case WordPartKind::kGlobQuestion:
        out += '?';
        break;
      case WordPartKind::kGlobClass:
        out += "[" + p.text + "]";
        break;
      case WordPartKind::kTilde:
        out += p.text.empty() ? LookupVar("HOME") : "/home/" + p.text;
        break;
    }
  }
  return out;
}

std::vector<std::string> Interpreter::ExpandWord(const Word& word,
                                                 std::vector<std::string>* pre_glob) {
  // Track which expansion produced which byte so field splitting and glob
  // expansion only apply to unquoted dynamic content. A simplified model:
  // expand to text, then (a) split on whitespace if the word contains an
  // unquoted Param/CommandSub, (b) glob-expand if it contains an unquoted
  // glob part or splitting produced glob characters from expansions.
  bool has_unquoted_dynamic = false;
  bool has_unquoted_glob = false;
  for (const WordPart& p : word.parts) {
    if (p.kind == WordPartKind::kParam || p.kind == WordPartKind::kCommandSub ||
        p.kind == WordPartKind::kArith) {
      has_unquoted_dynamic = true;
    }
    if (p.kind == WordPartKind::kGlobStar || p.kind == WordPartKind::kGlobQuestion ||
        p.kind == WordPartKind::kGlobClass) {
      has_unquoted_glob = true;
    }
  }
  std::string text = ExpandParts(word.parts);

  std::vector<std::string> fields;
  if (has_unquoted_dynamic) {
    // IFS field splitting (default IFS: space, tab, newline).
    std::string field;
    for (char c : text) {
      if (c == ' ' || c == '\t' || c == '\n') {
        if (!field.empty()) {
          fields.push_back(std::move(field));
          field.clear();
        }
      } else {
        field += c;
      }
    }
    if (!field.empty()) {
      fields.push_back(std::move(field));
    }
    if (fields.empty() && !has_unquoted_glob) {
      return {};
    }
  } else {
    fields.push_back(text);
  }
  // Pathname expansion applies to unquoted glob parts AND to glob characters
  // produced by unquoted expansions (the very channel Fig. 1's "$d"/* and
  // the §3 split-variable variant exploit).
  std::vector<std::string> out;
  for (const std::string& f : fields) {
    bool globbable = has_unquoted_glob || (has_unquoted_dynamic && fs::HasGlobChars(f));
    const size_t before = out.size();
    if (!globbable) {
      out.push_back(f);
    } else {
      for (std::string& match : fs::ExpandGlob(*fs_, f, fs_->cwd())) {
        out.push_back(std::move(match));
      }
    }
    if (pre_glob != nullptr) {
      pre_glob->insert(pre_glob->end(), out.size() - before, f);
    }
  }
  return out;
}

int Interpreter::RunTestBuiltin(const std::vector<std::string>& args) {
  auto truth = [](bool b) { return b ? 0 : 1; };
  if (args.empty()) {
    return 1;
  }
  if (args[0] == "!") {
    int inner = RunTestBuiltin({args.begin() + 1, args.end()});
    return inner == 0 ? 1 : 0;
  }
  if (args.size() == 1) {
    return truth(!args[0].empty());
  }
  if (args.size() == 2) {
    const std::string& op = args[0];
    const std::string& v = args[1];
    if (op == "-z") {
      return truth(v.empty());
    }
    if (op == "-n") {
      return truth(!v.empty());
    }
    if (op == "-e") {
      return truth(fs_->Exists(v));
    }
    if (op == "-f") {
      return truth(fs_->IsFile(v));
    }
    if (op == "-d") {
      return truth(fs_->IsDir(v));
    }
    if (op == "-s") {
      Result<std::string> c = fs_->ReadFile(v);
      return truth(c.ok() && !c->empty());
    }
    if (op == "-r" || op == "-w" || op == "-x") {
      return truth(fs_->Exists(v));
    }
    return 2;
  }
  if (args.size() == 3) {
    const std::string& a = args[0];
    const std::string& op = args[1];
    const std::string& b = args[2];
    if (op == "=" || op == "==") {
      return truth(a == b);
    }
    if (op == "!=") {
      return truth(a != b);
    }
    long la = std::atol(a.c_str());
    long lb = std::atol(b.c_str());
    if (op == "-eq") {
      return truth(la == lb);
    }
    if (op == "-ne") {
      return truth(la != lb);
    }
    if (op == "-lt") {
      return truth(la < lb);
    }
    if (op == "-le") {
      return truth(la <= lb);
    }
    if (op == "-gt") {
      return truth(la > lb);
    }
    if (op == "-ge") {
      return truth(la >= lb);
    }
    return 2;
  }
  return 2;
}

int Interpreter::ExecSimple(const Command& cmd, ExecContext ctx) {
  // Assignments.
  for (const syntax::Assignment& a : cmd.simple.assignments) {
    vars_[a.name] = ExpandParts(a.value.parts);
    if (exited_ || aborted_) {
      return last_exit_;
    }
  }
  // Argv, and its fields before pathname expansion when a guard reads them.
  std::vector<std::string> argv;
  std::vector<std::string> pre_glob;
  for (const Word& w : cmd.simple.words) {
    for (std::string& f : ExpandWord(w, command_hook_ ? &pre_glob : nullptr)) {
      argv.push_back(std::move(f));
    }
    if (exited_ || aborted_) {
      return last_exit_;
    }
  }
  if (argv.empty()) {
    if (cmd.simple.assignments.empty()) {
      last_exit_ = 0;
    }
    return last_exit_;
  }

  // Redirections: input first, then output capture setup.
  std::string_view stdin_data = ctx.stdin_data;
  std::string redirected;  // Owns a `<` file's content while stdin views it.
  std::string redirect_out_path;
  bool redirect_append = false;
  for (const syntax::Redirect& r : cmd.redirects) {
    std::vector<std::string> targets = ExpandWord(r.target);
    std::string target = targets.empty() ? "" : targets[0];
    switch (r.op) {
      case syntax::RedirOp::kIn: {
        Result<std::string> content = fs_->ReadFile(target);
        if (!content.ok()) {
          EmitErr("sh: cannot open " + target + ": " + content.status().message() + "\n");
          last_exit_ = 1;
          return 1;
        }
        redirected = std::move(*content);
        stdin_data = redirected;
        break;
      }
      case syntax::RedirOp::kHereDoc:
      case syntax::RedirOp::kHereDocTab:
        if (r.heredoc_body != nullptr) {
          stdin_data = *r.heredoc_body;  // Expansion inside bodies not modeled.
        }
        break;
      case syntax::RedirOp::kOut:
      case syntax::RedirOp::kClobber:
        redirect_out_path = target;
        redirect_append = false;
        break;
      case syntax::RedirOp::kAppend:
        redirect_out_path = target;
        redirect_append = true;
        break;
      case syntax::RedirOp::kDupIn:
      case syntax::RedirOp::kDupOut:
      case syntax::RedirOp::kReadWrite:
        break;  // fd duplication not modeled.
    }
  }

  const std::string& name = argv[0];
  int code = 0;

  // Builtins that touch interpreter state.
  if (auto fn = functions_.find(name); fn != functions_.end()) {
    std::vector<std::string> saved_args = options_.args;
    options_.args.assign(argv.begin() + 1, argv.end());
    code = ExecCommand(*fn->second, ctx);
    options_.args = std::move(saved_args);
    exited_ = false;
    last_exit_ = code;
    return code;
  }
  if (name == "cd") {
    std::string target = argv.size() > 1 ? argv[1] : LookupVar("HOME");
    if (target.empty()) {
      last_exit_ = 1;
      return 1;
    }
    Status s = fs_->ChangeDir(target);
    if (!s.ok()) {
      EmitErr("sh: cd: " + target + ": " + s.message() + "\n");
      last_exit_ = 1;
      return 1;
    }
    vars_["PWD"] = fs_->cwd();
    last_exit_ = 0;
    return 0;
  }
  if (name == "exit") {
    exited_ = true;
    last_exit_ = argv.size() > 1 ? std::atoi(argv[1].c_str()) : last_exit_;
    return last_exit_;
  }
  if (name == "export" || name == "readonly" || name == "local") {
    for (size_t i = 1; i < argv.size(); ++i) {
      size_t eq = argv[i].find('=');
      if (eq != std::string::npos) {
        vars_[argv[i].substr(0, eq)] = argv[i].substr(eq + 1);
      }
    }
    last_exit_ = 0;
    return 0;
  }
  if (name == "unset") {
    for (size_t i = 1; i < argv.size(); ++i) {
      vars_.erase(argv[i]);
    }
    last_exit_ = 0;
    return 0;
  }
  if (name == "read") {
    if (stdin_data.empty()) {
      last_exit_ = 1;
      return 1;
    }
    if (argv.size() > 1) {
      vars_[argv[1]] = std::string(stdin_data.substr(0, stdin_data.find('\n')));
    }
    last_exit_ = 0;
    return 0;
  }
  if (name == "shift") {
    if (!options_.args.empty()) {
      options_.args.erase(options_.args.begin());
    }
    last_exit_ = 0;
    return 0;
  }
  if (name == "set") {
    last_exit_ = 0;
    return 0;
  }
  if (name == "test" || name == "[") {
    std::vector<std::string> targs(argv.begin() + 1, argv.end());
    if (name == "[") {
      if (targs.empty() || targs.back() != "]") {
        EmitErr("sh: [: missing ]\n");
        last_exit_ = 2;
        return 2;
      }
      targs.pop_back();
    }
    code = RunTestBuiltin(targs);
    last_exit_ = code;
    return code;
  }

  // External command via the models, guarded by the monitor hook.
  if (commands_counter_ != nullptr) {
    commands_counter_->Add(1);
  }
  {
    std::string reason;
    if (!InvokeGuard(argv, pre_glob, &reason)) {
      aborted_ = true;
      abort_reason_ = reason;
      last_exit_ = 1;
      return 1;
    }
  }
  exec::RunResult run = exec::RunCommand(*fs_, argv, stdin_data, options_.world);
  code = run.exit_code;
  EmitErr(run.err);
  if (!redirect_out_path.empty()) {
    // Redirection writes pass through the guard as synthetic commands.
    {
      std::string reason;
      const std::vector<std::string> write{"__write__", redirect_out_path};
      if (!InvokeGuard(write, write, &reason)) {
        aborted_ = true;
        abort_reason_ = reason;
        last_exit_ = 1;
        return 1;
      }
    }
    Status s = fs_->WriteFile(redirect_out_path, run.out, redirect_append);
    if (!s.ok()) {
      EmitErr("sh: " + redirect_out_path + ": " + s.message() + "\n");
      code = 1;
    }
  } else {
    Emit(ctx, std::move(run.out));
  }
  last_exit_ = code;
  return code;
}

}  // namespace sash::monitor
