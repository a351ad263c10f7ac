// Simulated time.
//
// The whole reproduction runs on virtual time produced by the discrete-event
// kernel (sim::Simulator).  Both `Duration` and `SimTime` are strong types
// over a signed 64-bit count of microseconds, which covers ~292k years of
// simulated time without overflow and keeps all arithmetic exact (no
// floating-point drift between runs).
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

namespace rdp::common {

class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration micros(std::int64_t us) {
    return Duration(us);
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t ms) {
    return Duration(ms * 1000);
  }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) {
    return Duration(s * 1'000'000);
  }
  // Fractional factory for values produced by random distributions.
  [[nodiscard]] static constexpr Duration from_seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e6));
  }
  [[nodiscard]] static constexpr Duration zero() { return Duration(0); }
  [[nodiscard]] static constexpr Duration max() {
    return Duration(INT64_MAX);
  }

  [[nodiscard]] constexpr std::int64_t count_micros() const { return us_; }
  [[nodiscard]] constexpr double to_seconds() const { return us_ / 1e6; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  constexpr Duration operator+(Duration other) const {
    return Duration(us_ + other.us_);
  }
  constexpr Duration operator-(Duration other) const {
    return Duration(us_ - other.us_);
  }
  constexpr Duration operator*(std::int64_t k) const {
    return Duration(us_ * k);
  }
  constexpr Duration operator/(std::int64_t k) const {
    return Duration(us_ / k);
  }
  constexpr double operator/(Duration other) const {
    return static_cast<double>(us_) / static_cast<double>(other.us_);
  }
  constexpr Duration& operator+=(Duration other) {
    us_ += other.us_;
    return *this;
  }

  [[nodiscard]] std::string str() const;

  friend std::ostream& operator<<(std::ostream& os, Duration d) {
    return os << d.str();
  }

 private:
  constexpr explicit Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime zero() { return SimTime(0); }
  [[nodiscard]] static constexpr SimTime max() { return SimTime(INT64_MAX); }
  [[nodiscard]] static constexpr SimTime from_micros(std::int64_t us) {
    return SimTime(us);
  }

  [[nodiscard]] constexpr std::int64_t count_micros() const { return us_; }
  [[nodiscard]] constexpr double to_seconds() const { return us_ / 1e6; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime operator+(Duration d) const {
    return SimTime(us_ + d.count_micros());
  }
  constexpr Duration operator-(SimTime other) const {
    return Duration::micros(us_ - other.us_);
  }

  [[nodiscard]] std::string str() const;

  friend std::ostream& operator<<(std::ostream& os, SimTime t) {
    return os << t.str();
  }

 private:
  constexpr explicit SimTime(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

}  // namespace rdp::common
