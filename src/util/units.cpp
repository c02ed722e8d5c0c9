#include "util/units.hpp"

#include <cmath>
#include <cstdio>

namespace chase::util {

namespace {

std::string format_scaled(double v, const char* suffix) {
  char buf[64];
  if (v >= 100.0 || std::abs(v - std::round(v)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", v, suffix);
  } else if (v >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix);
  }
  return buf;
}

}  // namespace

std::string format_bytes(double bytes) {
  if (bytes < 0) return std::string("-").append(format_bytes(-bytes));
  if (bytes >= kPB) return format_scaled(bytes / kPB, "PB");
  if (bytes >= kTB) return format_scaled(bytes / kTB, "TB");
  if (bytes >= kGB) return format_scaled(bytes / kGB, "GB");
  if (bytes >= kMB) return format_scaled(bytes / kMB, "MB");
  if (bytes >= kKB) return format_scaled(bytes / kKB, "KB");
  return format_scaled(bytes, "B");
}

std::string format_rate(double bytes_per_s) {
  return format_bytes(bytes_per_s) + "/s";
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 0) return std::string("-").append(format_duration(-seconds));
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fms", seconds * 1e3);
    return buf;
  }
  if (seconds < kMinute) {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
    return buf;
  }
  if (seconds < kHour) {
    int m = static_cast<int>(seconds / kMinute);
    int s = static_cast<int>(seconds - m * kMinute);
    if (s == 0) {
      std::snprintf(buf, sizeof(buf), "%dm", m);
    } else {
      std::snprintf(buf, sizeof(buf), "%dm%02ds", m, s);
    }
    return buf;
  }
  int h = static_cast<int>(seconds / kHour);
  int m = static_cast<int>((seconds - h * kHour) / kMinute);
  if (m == 0) {
    std::snprintf(buf, sizeof(buf), "%dh", h);
  } else {
    std::snprintf(buf, sizeof(buf), "%dh%02dm", h, m);
  }
  return buf;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace chase::util
