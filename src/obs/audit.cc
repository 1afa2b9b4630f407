#include "obs/audit.h"

#include <cstdio>

namespace sqpr {
namespace obs {

namespace {

/// %.6g matches the bench/metrics writers: enough precision for
/// latencies, stable across platforms for the values we emit.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendInt(std::string* out, long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  *out += buf;
}

void AppendHex(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

uint64_t AuditJournal::Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AuditJournal::Append(AuditRecord record) {
  seqs_.push_back(record.speculative ? speculative_seq_++ : canonical_seq_++);
  records_.push_back(std::move(record));
}

std::string AuditJournal::ToJsonl(bool canonical) const {
  std::string out;
  out.reserve(records_.size() * 160 + 128);
  out += "{\"schema\":\"sqpr-audit-v1\",\"canonical\":";
  out += canonical ? "true" : "false";
  out += "}\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const AuditRecord& r = records_[i];
    if (canonical && r.speculative) continue;
    out += r.speculative ? "{\"sseq\":" : "{\"seq\":";
    AppendInt(&out, seqs_[i]);
    out += ",\"t_ms\":";
    AppendInt(&out, r.t_ms);
    out += ",\"kind\":\"";
    out += r.kind;  // reason codes are fixed identifiers, never escaped
    out += "\"";
    if (r.query >= 0) {
      out += ",\"query\":";
      AppendInt(&out, r.query);
    }
    if (r.host >= 0) {
      out += ",\"host\":";
      AppendInt(&out, r.host);
    }
    if (r.round >= 0) {
      out += ",\"round\":";
      AppendInt(&out, r.round);
    }
    if (r.detail >= 0) {
      out += ",\"detail\":";
      AppendInt(&out, r.detail);
    }
    if (r.aux >= 0) {
      out += ",\"aux\":";
      AppendInt(&out, r.aux);
    }
    if (!r.streams.empty()) {
      out += ",\"streams\":[";
      for (size_t k = 0; k < r.streams.size(); ++k) {
        if (k > 0) out += ",";
        AppendInt(&out, r.streams[k]);
      }
      out += "]";
    }
    if (r.pre_fp != 0) {
      out += ",\"pre\":{\"v\":";
      AppendInt(&out, static_cast<long long>(r.pre_version));
      out += ",\"s\":";
      AppendInt(&out, static_cast<long long>(r.pre_structure));
      out += ",\"fp\":\"";
      AppendHex(&out, r.pre_fp);
      out += "\"},\"post\":{\"v\":";
      AppendInt(&out, static_cast<long long>(r.post_version));
      out += ",\"s\":";
      AppendInt(&out, static_cast<long long>(r.post_structure));
      out += ",\"fp\":\"";
      AppendHex(&out, r.post_fp);
      out += "\"}";
    }
    if (!canonical && r.solve_ms >= 0.0) {
      out += ",\"wall\":{\"solve_ms\":";
      AppendDouble(&out, r.solve_ms);
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

Status AuditJournal::WriteFile(const std::string& path,
                               bool canonical) const {
  const std::string jsonl = ToJsonl(canonical);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot write audit journal to " + path);
  }
  const size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  if (written != jsonl.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace sqpr
