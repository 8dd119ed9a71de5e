#include "core/session_checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/durable_file.h"

namespace veritas {

namespace {

// Hex-float encoding round-trips every finite double bit-exactly and parses
// back with strtod; decimal formatting would need 17 digits and still risks
// libc rounding differences.
std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Result<double> ParseDoubleToken(const std::string& token) {
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument("checkpoint: bad number '" + token + "'");
  }
  return parsed;
}

Status ExpectTag(std::istream& in, const char* tag) {
  std::string token;
  if (!(in >> token) || token != tag) {
    return Status::InvalidArgument(std::string("checkpoint: expected '") +
                                   tag + "', got '" + token + "'");
  }
  return Status::OK();
}

// Reads the remainder of the current line as an opaque state blob; "-"
// encodes the empty state (so every record is at least one token).
Result<std::string> ReadRestOfLine(std::istream& in) {
  std::string rest;
  std::getline(in, rest);
  const std::size_t start = rest.find_first_not_of(' ');
  if (start == std::string::npos || rest.substr(start) == "-") {
    return std::string();
  }
  return rest.substr(start);
}

void WriteStateLine(std::ostream& out, const char* tag,
                    const std::string& state) {
  out << tag << " " << (state.empty() ? "-" : state) << "\n";
}

Result<std::vector<ItemId>> ReadItemList(std::istream& in,
                                         const Database& db) {
  std::size_t n = 0;
  if (!(in >> n)) {
    return Status::InvalidArgument("checkpoint: missing item count");
  }
  if (n > db.num_items()) {
    return Status::InvalidArgument("checkpoint: item list longer than db");
  }
  std::vector<ItemId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ItemId id = kInvalidItem;
    if (!(in >> id) || id >= db.num_items()) {
      return Status::InvalidArgument("checkpoint: item id out of range");
    }
    out.push_back(id);
  }
  return out;
}

Result<std::vector<double>> ReadDoubles(std::istream& in, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string token;
    if (!(in >> token)) {
      return Status::InvalidArgument("checkpoint: truncated number list");
    }
    VERITAS_ASSIGN_OR_RETURN(double v, ParseDoubleToken(token));
    out.push_back(v);
  }
  return out;
}

// Format v2 trailer: "crc32c <8-hex-digit checksum> <payload bytes>\n"
// appended after the "end" tag. The checksum covers every byte of the
// payload (header through "end\n" inclusive), so both truncation (length
// mismatch) and bit flips (checksum mismatch) are caught before parsing.
std::string MakeTrailer(const std::string& payload) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "crc32c %08x %zu\n", Crc32c(payload),
                payload.size());
  return buf;
}

// Splits `contents` into payload + verified trailer. On success `payload`
// holds everything before the trailer line.
Status VerifyTrailer(const std::string& contents, std::string* payload) {
  if (contents.empty() || contents.back() != '\n') {
    return Status::InvalidArgument(
        "checkpoint: truncated (no trailing newline)");
  }
  const std::size_t prev = contents.find_last_of('\n', contents.size() - 2);
  const std::size_t line_start = prev == std::string::npos ? 0 : prev + 1;
  const std::string line =
      contents.substr(line_start, contents.size() - line_start - 1);
  std::istringstream in(line);
  std::string tag, hex;
  std::size_t size = 0;
  if (!(in >> tag >> hex >> size) || tag != "crc32c") {
    return Status::InvalidArgument(
        "checkpoint: missing or corrupt checksum trailer");
  }
  char* end = nullptr;
  const unsigned long expected_crc = std::strtoul(hex.c_str(), &end, 16);
  if (end == hex.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        "checkpoint: unreadable checksum '" + hex + "'");
  }
  *payload = contents.substr(0, line_start);
  if (payload->size() != size) {
    return Status::InvalidArgument(
        "checkpoint: truncated (payload is " +
        std::to_string(payload->size()) + " bytes, trailer recorded " +
        std::to_string(size) + ")");
  }
  const std::uint32_t actual_crc = Crc32c(*payload);
  if (actual_crc != static_cast<std::uint32_t>(expected_crc)) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", actual_crc);
    return Status::InvalidArgument("checkpoint: checksum mismatch (stored " +
                                   hex + ", computed " + buf + ")");
  }
  return Status::OK();
}

// Reads the "veritas-checkpoint <version>" header without consuming the
// stream, distinguishing a garbage/truncated version field from a version
// this build does not understand. Only the current version loads: older
// layouts (v1 had no checksum trailer) are rejected, not trusted unchecked.
Status PeekVersion(const std::string& contents) {
  std::istringstream in(contents);
  std::string tag;
  if (!(in >> tag) || tag != "veritas-checkpoint") {
    return Status::InvalidArgument(
        "checkpoint: expected 'veritas-checkpoint', got '" + tag + "'");
  }
  std::string token;
  if (!(in >> token)) {
    return Status::InvalidArgument(
        "checkpoint: unreadable format version (truncated header)");
  }
  char* end = nullptr;
  const long version = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        "checkpoint: unreadable format version '" + token + "'");
  }
  if (version != SessionCheckpoint::kFormatVersion) {
    return Status::InvalidArgument("checkpoint: unsupported format version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

Status SaveSessionCheckpoint(const SessionCheckpoint& checkpoint,
                             const std::string& path, int keep_generations) {
  std::ostringstream out;
  out << "veritas-checkpoint " << SessionCheckpoint::kFormatVersion << "\n";
  out << "meta " << checkpoint.num_validated << " "
      << checkpoint.total_oracle_retries << " "
      << checkpoint.fusion_nonconverged_rounds << " "
      << checkpoint.fusion_fallback_rounds << "\n";
  out << "initial " << HexDouble(checkpoint.initial_distance) << " "
      << HexDouble(checkpoint.initial_uncertainty) << "\n";
  WriteStateLine(out, "rng", checkpoint.rng_state);
  WriteStateLine(out, "oracle", checkpoint.oracle_state);
  out << "skipped " << checkpoint.skipped_items.size();
  for (ItemId id : checkpoint.skipped_items) out << " " << id;
  out << "\n";
  out << "steps " << checkpoint.steps.size() << "\n";
  for (const SessionStep& step : checkpoint.steps) {
    out << "step " << step.num_validated << " " << step.oracle_retries << " "
        << HexDouble(step.distance) << " " << HexDouble(step.uncertainty)
        << " " << HexDouble(step.select_seconds) << " "
        << HexDouble(step.fuse_seconds) << " " << step.items.size();
    for (ItemId id : step.items) out << " " << id;
    out << " " << step.skipped.size();
    for (ItemId id : step.skipped) out << " " << id;
    out << "\n";
  }
  out << "priors " << checkpoint.priors.size() << "\n";
  for (const auto& [item, probs] : checkpoint.priors) {
    out << "prior " << item << " " << probs.size();
    for (double p : probs) out << " " << HexDouble(p);
    out << "\n";
  }
  const FusionResult& fusion = checkpoint.fusion;
  out << "fusion " << fusion.num_items() << " "
      << fusion.accuracies().size() << " " << fusion.iterations() << " "
      << (fusion.converged() ? 1 : 0) << "\n";
  for (ItemId i = 0; i < fusion.num_items(); ++i) {
    const std::vector<double>& probs = fusion.item_probs(i);
    out << "fprob " << i << " " << probs.size();
    for (double p : probs) out << " " << HexDouble(p);
    out << "\n";
  }
  out << "facc " << fusion.accuracies().size();
  for (double a : fusion.accuracies()) out << " " << HexDouble(a);
  out << "\nend\n";

  const std::string payload = out.str();

  // Rotate the recovery chain before the head is replaced: path.1 -> path.2,
  // path -> path.1. A crash between the rotation and the new head write
  // leaves path.1 as the newest verifiable generation, which the loader's
  // chain walk finds. Missing generations are fine (fresh sessions).
  for (int gen = keep_generations; gen >= 1; --gen) {
    const std::string from =
        gen == 1 ? path : path + "." + std::to_string(gen - 1);
    const std::string to = path + "." + std::to_string(gen);
    (void)std::rename(from.c_str(), to.c_str());
  }

  // Atomic, fsync'd replace with a process-unique temp name: a crash
  // mid-write must not clobber the previous checkpoint, and two sessions
  // checkpointing the same path must not race on the temp file.
  return AtomicWriteFile(path, payload + MakeTrailer(payload));
}

namespace {

// Loads and verifies one on-disk generation. The parsing still never trusts
// the file — the checksum catches random corruption, but a maliciously (or
// impossibly) crafted payload with a valid checksum must also fail with a
// Status, never crash — so every shape check below stays.
Result<SessionCheckpoint> LoadCheckpointGeneration(const std::string& path,
                                                   const Database& db) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("no checkpoint at: " + path);
  }
  std::ostringstream raw;
  raw << file.rdbuf();
  const std::string contents = raw.str();

  VERITAS_RETURN_IF_ERROR(PeekVersion(contents));
  std::string payload;
  VERITAS_RETURN_IF_ERROR(VerifyTrailer(contents, &payload));
  std::istringstream in(payload);
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "veritas-checkpoint"));
  {
    std::string version_token;
    in >> version_token;  // Validated by PeekVersion above.
  }

  SessionCheckpoint cp;
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "meta"));
  if (!(in >> cp.num_validated >> cp.total_oracle_retries >>
        cp.fusion_nonconverged_rounds >> cp.fusion_fallback_rounds)) {
    return Status::InvalidArgument("checkpoint: bad meta record");
  }
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "initial"));
  {
    VERITAS_ASSIGN_OR_RETURN(auto initial, ReadDoubles(in, 2));
    cp.initial_distance = initial[0];
    cp.initial_uncertainty = initial[1];
  }
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "rng"));
  VERITAS_ASSIGN_OR_RETURN(cp.rng_state, ReadRestOfLine(in));
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "oracle"));
  VERITAS_ASSIGN_OR_RETURN(cp.oracle_state, ReadRestOfLine(in));
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "skipped"));
  VERITAS_ASSIGN_OR_RETURN(cp.skipped_items, ReadItemList(in, db));

  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "steps"));
  std::size_t num_steps = 0;
  if (!(in >> num_steps)) {
    return Status::InvalidArgument("checkpoint: bad step count");
  }
  cp.steps.reserve(num_steps);
  for (std::size_t s = 0; s < num_steps; ++s) {
    VERITAS_RETURN_IF_ERROR(ExpectTag(in, "step"));
    SessionStep step;
    if (!(in >> step.num_validated >> step.oracle_retries)) {
      return Status::InvalidArgument("checkpoint: bad step record");
    }
    VERITAS_ASSIGN_OR_RETURN(auto metrics, ReadDoubles(in, 4));
    step.distance = metrics[0];
    step.uncertainty = metrics[1];
    step.select_seconds = metrics[2];
    step.fuse_seconds = metrics[3];
    VERITAS_ASSIGN_OR_RETURN(step.items, ReadItemList(in, db));
    VERITAS_ASSIGN_OR_RETURN(step.skipped, ReadItemList(in, db));
    cp.steps.push_back(std::move(step));
  }

  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "priors"));
  std::size_t num_priors = 0;
  if (!(in >> num_priors)) {
    return Status::InvalidArgument("checkpoint: bad prior count");
  }
  for (std::size_t p = 0; p < num_priors; ++p) {
    VERITAS_RETURN_IF_ERROR(ExpectTag(in, "prior"));
    ItemId item = kInvalidItem;
    std::size_t num_claims = 0;
    if (!(in >> item >> num_claims) || item >= db.num_items() ||
        num_claims != db.num_claims(item)) {
      return Status::InvalidArgument(
          "checkpoint: prior does not match database shape");
    }
    VERITAS_ASSIGN_OR_RETURN(auto probs, ReadDoubles(in, num_claims));
    VERITAS_RETURN_IF_ERROR(
        cp.priors.SetDistribution(db, item, std::move(probs)));
  }

  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "fusion"));
  std::size_t fusion_items = 0, fusion_sources = 0, iterations = 0;
  int converged = 0;
  if (!(in >> fusion_items >> fusion_sources >> iterations >> converged) ||
      fusion_items != db.num_items() || fusion_sources != db.num_sources()) {
    return Status::InvalidArgument(
        "checkpoint: fusion result does not match database shape");
  }
  cp.fusion = FusionResult(db, 0.0);
  cp.fusion.set_iterations(iterations);
  cp.fusion.set_converged(converged != 0);
  for (std::size_t i = 0; i < fusion_items; ++i) {
    VERITAS_RETURN_IF_ERROR(ExpectTag(in, "fprob"));
    ItemId item = kInvalidItem;
    std::size_t num_claims = 0;
    if (!(in >> item >> num_claims) || item >= db.num_items() ||
        num_claims != db.num_claims(item)) {
      return Status::InvalidArgument(
          "checkpoint: fusion probs do not match database shape");
    }
    VERITAS_ASSIGN_OR_RETURN(*cp.fusion.mutable_item_probs(item),
                             ReadDoubles(in, num_claims));
  }
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "facc"));
  std::size_t num_accuracies = 0;
  if (!(in >> num_accuracies) || num_accuracies != db.num_sources()) {
    return Status::InvalidArgument(
        "checkpoint: accuracies do not match database shape");
  }
  VERITAS_ASSIGN_OR_RETURN(*cp.fusion.mutable_accuracies(),
                           ReadDoubles(in, num_accuracies));
  VERITAS_RETURN_IF_ERROR(ExpectTag(in, "end"));
  return cp;
}

}  // namespace

Result<SessionCheckpoint> LoadSessionCheckpoint(const std::string& path,
                                                const Database& db) {
  static Counter* recovered_counter =
      MetricsRegistry::Global().GetCounter("checkpoint.recovered");
  Status head_status;
  for (int gen = 0; gen <= SessionCheckpoint::kRecoveryGenerations; ++gen) {
    const std::string p =
        gen == 0 ? path : path + "." + std::to_string(gen);
    auto loaded = LoadCheckpointGeneration(p, db);
    if (loaded.ok()) {
      if (gen > 0) recovered_counter->Add(1);
      return loaded;
    }
    // Head unusable (missing after a crashed rotation, truncated, or
    // corrupt): keep walking toward older generations. The head's error is
    // what the caller sees if nothing in the chain verifies — it names the
    // file the user pointed at and preserves NotFound fresh-start semantics.
    if (gen == 0) head_status = loaded.status();
  }
  return head_status;
}

}  // namespace veritas
