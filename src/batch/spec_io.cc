#include "batch/spec_io.h"

#include "batch/cache.h"
#include "core/version.h"
#include "util/sha256.h"

namespace sash::batch {

namespace {

// Content checksum over everything a warm load reuses, so a bit-flipped or
// truncated mining entry is detected and demoted to a re-mine rather than
// silently installing a wrong spec. Specs are hashed via their canonical
// serialization (the writer's own output, which Decode re-derives exactly).
std::string MiningChecksum(const mining::MiningOutcome& outcome) {
  util::Sha256 h;
  auto feed = [&h](std::string_view part) {
    h.Update(std::to_string(part.size()));
    h.Update(":");
    h.Update(part);
  };
  feed(outcome.command);
  feed(outcome.ok ? "1" : "0");
  feed(outcome.error);
  obs::JsonWriter specs_w;
  WriteSyntaxSpec(outcome.syntax, &specs_w);
  WriteCommandSpec(outcome.spec, &specs_w);
  feed(specs_w.Take());
  feed(std::to_string(outcome.invocations));
  feed(std::to_string(outcome.environments));
  feed(std::to_string(outcome.probes));
  feed(std::to_string(outcome.cases));
  feed(std::to_string(outcome.validation.configurations));
  feed(std::to_string(outcome.validation.agreements));
  for (const std::string& d : outcome.validation.disagreements) {
    feed(d);
  }
  return h.HexDigest();
}

// Lookup helpers tolerant of missing members: decoding fails (nullopt) rather
// than crashing on a foreign or truncated document.
const obs::JsonValue* Get(const obs::JsonValue& v, std::string_view key,
                          obs::JsonValue::Kind kind) {
  const obs::JsonValue* m = v.Find(key);
  if (m == nullptr || m->kind != kind) {
    return nullptr;
  }
  return m;
}

bool GetInt(const obs::JsonValue& v, std::string_view key, int* out) {
  const obs::JsonValue* m = Get(v, key, obs::JsonValue::Kind::kNumber);
  if (m == nullptr) {
    return false;
  }
  *out = static_cast<int>(m->number);
  return true;
}

bool GetBool(const obs::JsonValue& v, std::string_view key, bool* out) {
  const obs::JsonValue* m = Get(v, key, obs::JsonValue::Kind::kBool);
  if (m == nullptr) {
    return false;
  }
  *out = m->boolean;
  return true;
}

bool GetString(const obs::JsonValue& v, std::string_view key, std::string* out) {
  const obs::JsonValue* m = Get(v, key, obs::JsonValue::Kind::kString);
  if (m == nullptr) {
    return false;
  }
  *out = m->string;
  return true;
}

void WriteSel(const specs::OperandSel& sel, obs::JsonWriter* w) {
  w->BeginObject();
  w->KV("kind", static_cast<int>(sel.kind));
  w->KV("index", sel.index);
  w->EndObject();
}

bool ReadSel(const obs::JsonValue& v, specs::OperandSel* out) {
  int kind = 0;
  if (!v.is_object() || !GetInt(v, "kind", &kind) || !GetInt(v, "index", &out->index)) {
    return false;
  }
  out->kind = static_cast<specs::OperandSel::Kind>(kind);
  return true;
}

void WriteSpecCase(const specs::SpecCase& c, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("required_flags").String(std::string(c.required_flags.begin(), c.required_flags.end()));
  w->Key("forbidden_flags").String(std::string(c.forbidden_flags.begin(), c.forbidden_flags.end()));
  w->Key("pre").BeginArray();
  for (const specs::PreCond& p : c.pre) {
    w->BeginObject();
    w->Key("sel");
    WriteSel(p.sel, w);
    w->KV("state", static_cast<int>(p.state));
    w->EndObject();
  }
  w->EndArray();
  w->Key("effects").BeginArray();
  for (const specs::Effect& e : c.effects) {
    w->BeginObject();
    w->KV("kind", static_cast<int>(e.kind));
    w->Key("sel");
    WriteSel(e.sel, w);
    w->EndObject();
  }
  w->EndArray();
  w->KV("exit_code", c.exit_code);
  w->KV("stdout_nonempty", c.stdout_nonempty);
  w->KV("stderr_nonempty", c.stderr_nonempty);
  w->EndObject();
}

std::optional<specs::SpecCase> ReadSpecCase(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return std::nullopt;
  }
  specs::SpecCase c;
  std::string req, forb;
  if (!GetString(v, "required_flags", &req) || !GetString(v, "forbidden_flags", &forb) ||
      !GetInt(v, "exit_code", &c.exit_code) ||
      !GetBool(v, "stdout_nonempty", &c.stdout_nonempty) ||
      !GetBool(v, "stderr_nonempty", &c.stderr_nonempty)) {
    return std::nullopt;
  }
  c.required_flags.insert(req.begin(), req.end());
  c.forbidden_flags.insert(forb.begin(), forb.end());
  const obs::JsonValue* pre = Get(v, "pre", obs::JsonValue::Kind::kArray);
  const obs::JsonValue* effects = Get(v, "effects", obs::JsonValue::Kind::kArray);
  if (pre == nullptr || effects == nullptr) {
    return std::nullopt;
  }
  for (const obs::JsonValue& pv : pre->array) {
    specs::PreCond p;
    int state = 0;
    const obs::JsonValue* sel = pv.Find("sel");
    if (sel == nullptr || !ReadSel(*sel, &p.sel) || !GetInt(pv, "state", &state)) {
      return std::nullopt;
    }
    p.state = static_cast<specs::PathState>(state);
    c.pre.push_back(p);
  }
  for (const obs::JsonValue& ev : effects->array) {
    specs::Effect e;
    int kind = 0;
    const obs::JsonValue* sel = ev.Find("sel");
    if (sel == nullptr || !ReadSel(*sel, &e.sel) || !GetInt(ev, "kind", &kind)) {
      return std::nullopt;
    }
    e.kind = static_cast<specs::EffectKind>(kind);
    c.effects.push_back(e);
  }
  return c;
}

}  // namespace

void WriteSyntaxSpec(const specs::SyntaxSpec& spec, obs::JsonWriter* w) {
  w->BeginObject();
  w->KV("command", spec.command);
  w->KV("summary", spec.summary);
  w->Key("flags").BeginArray();
  for (const specs::FlagSpec& f : spec.flags) {
    w->BeginObject();
    w->KV("letter", std::string(1, f.letter));
    w->KV("long_name", f.long_name);
    w->KV("takes_arg", f.takes_arg);
    w->KV("arg_kind", static_cast<int>(f.arg_kind));
    w->KV("description", f.description);
    w->EndObject();
  }
  w->EndArray();
  w->Key("operands").BeginArray();
  for (const specs::OperandSpec& o : spec.operands) {
    w->BeginObject();
    w->KV("name", o.name);
    w->KV("kind", static_cast<int>(o.kind));
    w->KV("min_count", o.min_count);
    w->KV("max_count", o.max_count);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::optional<specs::SyntaxSpec> ReadSyntaxSpec(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return std::nullopt;
  }
  specs::SyntaxSpec spec;
  if (!GetString(v, "command", &spec.command) || !GetString(v, "summary", &spec.summary)) {
    return std::nullopt;
  }
  const obs::JsonValue* flags = Get(v, "flags", obs::JsonValue::Kind::kArray);
  const obs::JsonValue* operands = Get(v, "operands", obs::JsonValue::Kind::kArray);
  if (flags == nullptr || operands == nullptr) {
    return std::nullopt;
  }
  for (const obs::JsonValue& fv : flags->array) {
    specs::FlagSpec f;
    std::string letter;
    int arg_kind = 0;
    if (!GetString(fv, "letter", &letter) || !GetString(fv, "long_name", &f.long_name) ||
        !GetBool(fv, "takes_arg", &f.takes_arg) || !GetInt(fv, "arg_kind", &arg_kind) ||
        !GetString(fv, "description", &f.description)) {
      return std::nullopt;
    }
    f.letter = letter.empty() ? '\0' : letter[0];
    f.arg_kind = static_cast<specs::ValueKind>(arg_kind);
    spec.flags.push_back(std::move(f));
  }
  for (const obs::JsonValue& ov : operands->array) {
    specs::OperandSpec o;
    int kind = 0;
    if (!GetString(ov, "name", &o.name) || !GetInt(ov, "kind", &kind) ||
        !GetInt(ov, "min_count", &o.min_count) || !GetInt(ov, "max_count", &o.max_count)) {
      return std::nullopt;
    }
    o.kind = static_cast<specs::ValueKind>(kind);
    spec.operands.push_back(std::move(o));
  }
  return spec;
}

void WriteCommandSpec(const specs::CommandSpec& spec, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("syntax");
  WriteSyntaxSpec(spec.syntax, w);
  w->Key("cases").BeginArray();
  for (const specs::SpecCase& c : spec.cases) {
    WriteSpecCase(c, w);
  }
  w->EndArray();
  w->KV("stdout_line_type", spec.stdout_line_type);
  w->EndObject();
}

std::optional<specs::CommandSpec> ReadCommandSpec(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return std::nullopt;
  }
  const obs::JsonValue* syntax = v.Find("syntax");
  const obs::JsonValue* cases = Get(v, "cases", obs::JsonValue::Kind::kArray);
  if (syntax == nullptr || cases == nullptr) {
    return std::nullopt;
  }
  specs::CommandSpec spec;
  std::optional<specs::SyntaxSpec> s = ReadSyntaxSpec(*syntax);
  if (!s.has_value() || !GetString(v, "stdout_line_type", &spec.stdout_line_type)) {
    return std::nullopt;
  }
  spec.syntax = std::move(*s);
  for (const obs::JsonValue& cv : cases->array) {
    std::optional<specs::SpecCase> c = ReadSpecCase(cv);
    if (!c.has_value()) {
      return std::nullopt;
    }
    spec.cases.push_back(std::move(*c));
  }
  return spec;
}

std::string EncodeMiningOutcome(std::string_view key, const mining::MiningOutcome& outcome) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", kMineCacheSchema);
  w.KV("kind", "mine");
  w.KV("key", key);
  w.KV("sash", core::kVersion);
  w.KV("command", outcome.command);
  w.KV("ok", outcome.ok);
  w.KV("error", outcome.error);
  w.KV("checksum", MiningChecksum(outcome));
  w.Key("syntax");
  WriteSyntaxSpec(outcome.syntax, &w);
  w.Key("spec");
  WriteCommandSpec(outcome.spec, &w);
  w.KV("invocations", outcome.invocations);
  w.KV("environments", outcome.environments);
  w.KV("probes", outcome.probes);
  w.KV("cases", outcome.cases);
  w.Key("validation").BeginObject();
  w.KV("configurations", outcome.validation.configurations);
  w.KV("agreements", outcome.validation.agreements);
  w.Key("disagreements").BeginArray();
  for (const std::string& d : outcome.validation.disagreements) {
    w.String(d);
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::optional<mining::MiningOutcome> DecodeMiningOutcome(std::string_view payload) {
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(payload);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  const obs::JsonValue* schema = doc->Find("schema");
  const obs::JsonValue* kind = doc->Find("kind");
  if (schema == nullptr || !schema->is_string() || schema->string != kMineCacheSchema ||
      kind == nullptr || !kind->is_string() || kind->string != "mine") {
    return std::nullopt;
  }
  mining::MiningOutcome out;
  if (!GetString(*doc, "command", &out.command) || !GetBool(*doc, "ok", &out.ok) ||
      !GetString(*doc, "error", &out.error) || !GetInt(*doc, "invocations", &out.invocations) ||
      !GetInt(*doc, "environments", &out.environments) || !GetInt(*doc, "probes", &out.probes) ||
      !GetInt(*doc, "cases", &out.cases)) {
    return std::nullopt;
  }
  const obs::JsonValue* syntax = doc->Find("syntax");
  const obs::JsonValue* spec = doc->Find("spec");
  const obs::JsonValue* validation = doc->Find("validation");
  if (syntax == nullptr || spec == nullptr || validation == nullptr ||
      !validation->is_object()) {
    return std::nullopt;
  }
  std::optional<specs::SyntaxSpec> s = ReadSyntaxSpec(*syntax);
  std::optional<specs::CommandSpec> cs = ReadCommandSpec(*spec);
  if (!s.has_value() || !cs.has_value()) {
    return std::nullopt;
  }
  out.syntax = std::move(*s);
  out.spec = std::move(*cs);
  if (!GetInt(*validation, "configurations", &out.validation.configurations) ||
      !GetInt(*validation, "agreements", &out.validation.agreements)) {
    return std::nullopt;
  }
  const obs::JsonValue* dis = Get(*validation, "disagreements", obs::JsonValue::Kind::kArray);
  if (dis == nullptr) {
    return std::nullopt;
  }
  for (const obs::JsonValue& d : dis->array) {
    if (!d.is_string()) {
      return std::nullopt;
    }
    out.validation.disagreements.push_back(d.string);
  }
  // Corruption gate: the stored checksum must match one recomputed from the
  // decoded content, or this entry is treated as a miss and re-mined.
  std::string checksum;
  if (!GetString(*doc, "checksum", &checksum) || checksum != MiningChecksum(out)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace sash::batch
