#include "exp/bench_json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/durable_file.h"

namespace veritas {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string QuotedJson(const std::string& s) {
  std::string quoted = "\"";
  quoted += EscapeJson(s);
  quoted += '"';
  return quoted;
}

std::string NumberJson(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/Inf.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// Scanner for exactly the flat subset Render() emits: one top-level object
// of scalar metadata plus a "records" array of flat scalar objects. Scalar
// values are captured in *rendered* form (quotes and escapes intact), so a
// parse → merge → render round-trip preserves every untouched byte of a
// record, including number formatting another binary chose.
struct Scanner {
  std::string_view s;
  std::size_t i = 0;

  void SkipWs() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return i < s.size() && s[i] == c;
  }

  /// Parses a quoted string; `raw` gets the quoted token verbatim, `text`
  /// the unescaped payload (either may be null).
  bool String(std::string* raw, std::string* text) {
    SkipWs();
    if (i >= s.size() || s[i] != '"') return false;
    const std::size_t start = i++;
    std::string out;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '\\') {
        if (i + 1 >= s.size()) return false;
        switch (s[i + 1]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '/': out += '/'; break;
          default: return false;  // \uXXXX etc. — never emitted by Render.
        }
        i += 2;
        continue;
      }
      if (c == '"') {
        ++i;
        if (raw != nullptr) *raw = std::string(s.substr(start, i - start));
        if (text != nullptr) *text = std::move(out);
        return true;
      }
      out += c;
      ++i;
    }
    return false;
  }

  /// Parses any scalar (string, number, true/false/null) into rendered form.
  /// For strings, `text` (optional) also gets the unescaped payload.
  bool Scalar(std::string* raw, std::string* text = nullptr) {
    SkipWs();
    if (i < s.size() && s[i] == '"') return String(raw, text);
    const std::size_t start = i;
    while (i < s.size()) {
      const char c = s[i];
      const bool token = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                         c == '+' || c == '-' || c == '.' || c == 'E';
      if (!token) break;
      ++i;
    }
    if (i == start) return false;
    *raw = std::string(s.substr(start, i - start));
    return true;
  }
};

}  // namespace

BenchJsonRecord& BenchJsonRecord::Set(const std::string& key, double value) {
  fields_.emplace_back(key, NumberJson(value));
  return *this;
}

BenchJsonRecord& BenchJsonRecord::Set(const std::string& key,
                                      std::size_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchJsonRecord& BenchJsonRecord::Set(const std::string& key,
                                      const std::string& value) {
  fields_.emplace_back(key, QuotedJson(value));
  return *this;
}

BenchJsonRecord& BenchJsonRecord::Set(const std::string& key,
                                      const char* value) {
  return Set(key, std::string(value));
}

BenchJsonRecord& BenchJsonRecord::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

void BenchJsonFile::SetMeta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, QuotedJson(value));
}

BenchJsonRecord& BenchJsonFile::Add(std::string name) {
  records_.emplace_back(std::move(name));
  return records_.back();
}

std::string BenchJsonFile::Render() const {
  std::ostringstream out;
  out << "{\n  \"schema\": " << QuotedJson(schema_);
  for (const auto& [key, value] : meta_) {
    out << ",\n  " << QuotedJson(key) << ": " << value;
  }
  out << ",\n  \"records\": [";
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const BenchJsonRecord& rec = records_[r];
    out << (r == 0 ? "" : ",") << "\n    {\"name\": " << QuotedJson(rec.name_);
    for (const auto& [key, value] : rec.fields_) {
      out << ", " << QuotedJson(key) << ": " << value;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

Status BenchJsonFile::Write(const std::string& path) const {
  // Atomic replace: interrupted benchmark runs never leave a torn JSON file
  // for downstream tooling to choke on.
  return AtomicWriteFile(path, Render());
}

Result<BenchJsonFile> BenchJsonFile::Parse(const std::string& text) {
  Scanner sc{text};
  if (!sc.Eat('{')) {
    return Status::InvalidArgument("bench json: expected top-level object");
  }
  BenchJsonFile file("");
  bool first = true;
  while (!sc.Peek('}')) {
    if (!first && !sc.Eat(',')) {
      return Status::InvalidArgument("bench json: expected ',' between keys");
    }
    first = false;
    std::string key;
    if (!sc.String(nullptr, &key) || !sc.Eat(':')) {
      return Status::InvalidArgument("bench json: malformed key");
    }
    if (key == "schema") {
      if (!sc.String(nullptr, &file.schema_)) {
        return Status::InvalidArgument("bench json: schema must be a string");
      }
    } else if (key == "records") {
      if (!sc.Eat('[')) {
        return Status::InvalidArgument("bench json: records must be an array");
      }
      bool first_rec = true;
      while (!sc.Peek(']')) {
        if (!first_rec && !sc.Eat(',')) {
          return Status::InvalidArgument(
              "bench json: expected ',' between records");
        }
        first_rec = false;
        if (!sc.Eat('{')) {
          return Status::InvalidArgument("bench json: record must be object");
        }
        BenchJsonRecord rec("");
        bool named = false;
        bool first_field = true;
        while (!sc.Peek('}')) {
          if (!first_field && !sc.Eat(',')) {
            return Status::InvalidArgument(
                "bench json: expected ',' between fields");
          }
          first_field = false;
          std::string fkey;
          if (!sc.String(nullptr, &fkey) || !sc.Eat(':')) {
            return Status::InvalidArgument("bench json: malformed field key");
          }
          std::string raw;
          std::string unescaped;
          if (!sc.Scalar(&raw, &unescaped)) {
            return Status::InvalidArgument(
                "bench json: record fields must be flat scalars");
          }
          if (fkey == "name") {
            rec.name_ = unescaped;
            named = true;
          } else {
            rec.fields_.emplace_back(std::move(fkey), std::move(raw));
          }
        }
        sc.Eat('}');
        if (!named) {
          return Status::InvalidArgument("bench json: record missing name");
        }
        file.records_.push_back(std::move(rec));
      }
      sc.Eat(']');
    } else {
      std::string raw;
      if (!sc.Scalar(&raw)) {
        return Status::InvalidArgument("bench json: meta value not scalar");
      }
      file.meta_.emplace_back(std::move(key), std::move(raw));
    }
  }
  sc.Eat('}');
  sc.SkipWs();
  if (sc.i != text.size()) {
    return Status::InvalidArgument("bench json: trailing content");
  }
  return file;
}

namespace {

const std::string* FindField(
    const std::vector<std::pair<std::string, std::string>>& fields,
    const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

Status BenchJsonFile::MergeInto(
    const std::string& path, const std::vector<std::string>& key_fields) const {
  BenchJsonFile merged = *this;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<BenchJsonFile> existing = Parse(buf.str());
    // An unreadable or foreign file is replaced outright — the merge only
    // preserves documents this writer produced.
    if (existing.ok()) {
      merged = std::move(existing).value();
      merged.schema_ = schema_;
      for (const auto& [key, value] : meta_) {
        bool replaced = false;
        for (auto& [old_key, old_value] : merged.meta_) {
          if (old_key == key) {
            old_value = value;
            replaced = true;
            break;
          }
        }
        if (!replaced) merged.meta_.emplace_back(key, value);
      }
      for (const BenchJsonRecord& rec : records_) {
        BenchJsonRecord* slot = nullptr;
        for (BenchJsonRecord& old : merged.records_) {
          if (old.name_ != rec.name_) continue;
          bool match = true;
          for (const std::string& key : key_fields) {
            const std::string* a = FindField(old.fields_, key);
            const std::string* b = FindField(rec.fields_, key);
            if ((a == nullptr) != (b == nullptr) ||
                (a != nullptr && *a != *b)) {
              match = false;
              break;
            }
          }
          if (match) {
            slot = &old;
            break;
          }
        }
        if (slot != nullptr) {
          *slot = rec;  // Replace in place, keeping document order stable.
        } else {
          merged.records_.push_back(rec);
        }
      }
    }
  }
  return merged.Write(path);
}

}  // namespace veritas
