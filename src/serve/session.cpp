#include "serve/session.h"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace wtp::serve {

namespace {

// Length-prefixed string (`<len>:<raw bytes>`): device and user ids are
// free-form CSV fields and may contain whitespace.
void write_string(std::ostream& out, std::string_view value) {
  out << value.size() << ':' << value;
}

std::string read_string(std::istream& in) {
  std::size_t length = 0;
  char colon = 0;
  if (!(in >> length) || !in.get(colon) || colon != ':') {
    throw std::runtime_error{"DeviceSession::restore: bad string prefix"};
  }
  std::string value(length, '\0');
  if (length != 0 && !in.read(value.data(), static_cast<std::streamsize>(length))) {
    throw std::runtime_error{"DeviceSession::restore: truncated string"};
  }
  return value;
}

}  // namespace

DeviceSession::DeviceSession(std::string device_id,
                             const features::FeatureSchema& schema,
                             features::WindowConfig window, std::size_t smooth)
    : device_id_{std::move(device_id)},
      aggregator_{schema, window},
      smooth_{smooth} {}

std::vector<PendingWindow> DeviceSession::attach_truth(
    std::vector<features::Window> windows) {
  std::vector<PendingWindow> pending;
  pending.reserve(windows.size());
  for (auto& window : windows) {
    PendingWindow item;
    item.true_user = truth_.majority(window.start, window.end);
    item.window = std::move(window);
    pending.push_back(std::move(item));
  }
  return pending;
}

std::vector<PendingWindow> DeviceSession::push(const log::WebTransaction& txn) {
  auto completed = aggregator_.push(txn);  // throws before any state change
  truth_.add(txn.timestamp, txn.user_id);
  last_seen_ = txn.timestamp;
  return attach_truth(std::move(completed));
}

std::vector<PendingWindow> DeviceSession::flush() {
  auto pending = attach_truth(aggregator_.flush());
  truth_.clear();
  return pending;
}

std::string DeviceSession::decide(const core::IdentificationEvent& event) {
  history_.push_back(event);
  const std::size_t keep = smooth_ > 1 ? smooth_ : 1;
  if (history_.size() > keep) history_.pop_front();
  if (smooth_ <= 1) {
    return core::UserIdentifier::decide_single(history_.back());
  }
  if (history_.size() < smooth_) return {};
  const std::vector<core::IdentificationEvent> recent{history_.begin(),
                                                      history_.end()};
  return core::UserIdentifier::decide_consecutive(recent, smooth_);
}

void DeviceSession::save(std::ostream& out) const {
  out << "session ";
  write_string(out, device_id_);
  out << ' ' << last_seen_ << ' ' << truth_.producers().size() << ' '
      << history_.size() << '\n';
  for (const auto& [timestamp, user] : truth_.producers()) {
    out << 'p' << ' ' << timestamp << ' ';
    write_string(out, user);
    out << '\n';
  }
  for (const auto& event : history_) {
    out << 'h' << ' ' << event.window_start << ' ' << event.window_end << ' '
        << event.transaction_count << ' ';
    write_string(out, event.true_user);
    out << ' ' << event.accepted_by.size();
    for (const auto& user : event.accepted_by) {
      out << ' ';
      write_string(out, user);
    }
    out << '\n';
  }
  aggregator_.save_state(out);
}

DeviceSession DeviceSession::restore(std::istream& in,
                                     const features::FeatureSchema& schema,
                                     features::WindowConfig window,
                                     std::size_t smooth) {
  const auto fail = [](const char* what) -> std::runtime_error {
    return std::runtime_error{std::string{"DeviceSession::restore: "} + what};
  };
  std::string tag;
  if (!(in >> tag) || tag != "session") throw fail("bad session header");
  std::string device_id = read_string(in);
  util::UnixSeconds last_seen = 0;
  std::size_t producer_count = 0;
  std::size_t history_count = 0;
  if (!(in >> last_seen >> producer_count >> history_count)) {
    throw fail("bad session counts");
  }
  DeviceSession session{std::move(device_id), schema, window, smooth};
  session.last_seen_ = last_seen;
  for (std::size_t i = 0; i < producer_count; ++i) {
    char kind = 0;
    util::UnixSeconds timestamp = 0;
    if (!(in >> kind) || kind != 'p' || !(in >> timestamp)) {
      throw fail("bad producer record");
    }
    std::string user = read_string(in);
    session.truth_.add(timestamp, std::move(user));
  }
  for (std::size_t i = 0; i < history_count; ++i) {
    char kind = 0;
    core::IdentificationEvent event;
    if (!(in >> kind) || kind != 'h' ||
        !(in >> event.window_start >> event.window_end >>
          event.transaction_count)) {
      throw fail("bad history record");
    }
    event.true_user = read_string(in);
    std::size_t accepted = 0;
    if (!(in >> accepted)) throw fail("bad accepted count");
    event.accepted_by.reserve(accepted);
    for (std::size_t j = 0; j < accepted; ++j) {
      event.accepted_by.push_back(read_string(in));
    }
    session.history_.push_back(std::move(event));
  }
  session.aggregator_.restore_state(in);
  return session;
}

}  // namespace wtp::serve
