// Span tracer and reporting helpers.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "perfbench.h"

namespace perfbench {

uint64_t Tracer::Reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(std::string name, uint64_t parent,
                        const std::string& session, Clock::time_point start,
                        Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{std::move(name), id, parent, session, start, end});
  return id;
}

void Tracer::RecordWithId(uint64_t id, std::string name, uint64_t parent,
                          const std::string& session, Clock::time_point start,
                          Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), id, parent, session, start, end});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::vector<double>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        covered.emplace_back(std::max(c->start, s.start),
                             std::min(c->end, s.end));
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_us = 0;
    Clock::time_point cursor = s.start;
    for (const auto& [a, b] : covered) {
      const Clock::time_point from = std::max(a, cursor);
      if (b > from) {
        covered_us += MicrosBetween(from, b);
        cursor = b;
      }
    }
    out[s.name].push_back(MicrosBetween(s.start, s.end) - covered_us);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream file(path);
  if (!file) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  for (const Span& s : spans_) {
    file << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"session\":\"" << s.session
         << "\",\"start_us\":" << MicrosBetween(origin, s.start)
         << ",\"end_us\":" << MicrosBetween(origin, s.end) << "}\n";
  }
  return static_cast<bool>(file);
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] * (1 - frac) + (*values)[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool ParseFlatJson(const std::string& json,
                   std::map<std::string, double>* out) {
  size_t i = json.find('{');
  if (i == std::string::npos) return false;
  ++i;
  while (i < json.size()) {
    const size_t key_start = json.find('"', i);
    if (key_start == std::string::npos) break;
    const size_t key_end = json.find('"', key_start + 1);
    const size_t colon = json.find(':', key_end);
    if (key_end == std::string::npos || colon == std::string::npos) {
      return false;
    }
    char* end = nullptr;
    const double value = std::strtod(json.c_str() + colon + 1, &end);
    if (end == json.c_str() + colon + 1) return false;
    (*out)[json.substr(key_start + 1, key_end - key_start - 1)] = value;
    i = static_cast<size_t>(end - json.c_str());
  }
  return !out->empty();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
