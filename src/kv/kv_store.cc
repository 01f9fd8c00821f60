#include "src/kv/kv_store.h"

#include "src/common/backoff.h"
#include "src/common/bytes.h"

namespace wvote {

void KvStoreStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("kv.store.gets", labels, &gets);
  registry->RegisterCounter("kv.store.puts", labels, &puts);
  registry->RegisterCounter("kv.store.deletes", labels, &deletes);
  registry->RegisterCounter("kv.store.batches", labels, &batches);
  registry->RegisterCounter("kv.store.cas_failures", labels, &cas_failures);
  registry->RegisterCounter("kv.store.retries", labels, &retries);
  registry->AddResetHook([this]() { Reset(); });
}

void ReplicatedKvStore::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry, {{"host", client_->rpc()->host()->name()},
                                 {"suite", client_->config().suite_name}});
}

std::string ReplicatedKvStore::SerializeMap(const std::map<std::string, std::string>& map) {
  BufferWriter w;
  w.WriteU32(static_cast<uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    w.WriteString(key);
    w.WriteString(value);
  }
  return w.Take();
}

Result<std::map<std::string, std::string>> ReplicatedKvStore::ParseMap(
    const std::string& bytes) {
  std::map<std::string, std::string> map;
  if (bytes.empty()) {
    return map;  // a never-written or freshly created suite reads as empty
  }
  BufferReader r(bytes);
  const uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    std::string key = r.ReadString();
    std::string value = r.ReadString();
    map.emplace(std::move(key), std::move(value));
  }
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad kv map encoding");
  }
  return map;
}

Task<Result<std::map<std::string, std::string>>> ReplicatedKvStore::Snapshot() {
  Result<std::string> contents = co_await client_->ReadOnce(max_retries_);
  if (!contents.ok()) {
    co_return contents.status();
  }
  co_return ParseMap(contents.value());
}

Task<Status> ReplicatedKvStore::Mutate(
    std::function<Status(std::map<std::string, std::string>&)> mutate) {
  Status last = InternalError("no attempts");
  for (int attempt = 0; attempt < max_retries_; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      co_await client_->rpc()->sim()->Sleep(Duration::Micros(
          client_->rpc()->sim()->rng().NextInRange(1000, 20000) * (attempt + 1)));
    }
    SuiteTransaction txn = client_->Begin();
    Result<std::string> contents = co_await txn.Read();
    if (!contents.ok()) {
      last = contents.status();
      co_await txn.Abort();
    } else {
      Result<std::map<std::string, std::string>> map = ParseMap(contents.value());
      if (!map.ok()) {
        co_await txn.Abort();
        co_return map.status();
      }
      Status decision = mutate(map.value());
      if (!decision.ok()) {
        co_await txn.Abort();
        co_return decision;  // caller-level refusal (e.g. CAS mismatch)
      }
      Status st = txn.Write(SerializeMap(map.value()));
      if (st.ok()) {
        st = co_await txn.Commit();
      } else {
        co_await txn.Abort();
      }
      if (st.ok()) {
        co_return st;
      }
      last = st;
    }
    if (!IsRetryable(last)) {
      co_return last;
    }
  }
  co_return last;
}

Task<Result<std::optional<std::string>>> ReplicatedKvStore::Get(std::string key) {
  ++stats_.gets;
  Result<std::map<std::string, std::string>> map = co_await Snapshot();
  if (!map.ok()) {
    co_return map.status();
  }
  auto it = map.value().find(key);
  if (it == map.value().end()) {
    co_return std::optional<std::string>();
  }
  co_return std::optional<std::string>(std::move(it->second));
}

Task<Status> ReplicatedKvStore::Put(std::string key, std::string value) {
  ++stats_.puts;
  std::function<Status(std::map<std::string, std::string>&)> mutate =
      [key = std::move(key), value = std::move(value)](
          std::map<std::string, std::string>& map) {
        map[key] = value;
        return Status::Ok();
      };
  co_return co_await Mutate(std::move(mutate));
}

Task<Status> ReplicatedKvStore::Delete(std::string key) {
  ++stats_.deletes;
  std::function<Status(std::map<std::string, std::string>&)> mutate =
      [key = std::move(key)](std::map<std::string, std::string>& map) {
        map.erase(key);
        return Status::Ok();
      };
  co_return co_await Mutate(std::move(mutate));
}

Task<Status> ReplicatedKvStore::PutMany(
    std::vector<std::pair<std::string, std::string>> entries) {
  ++stats_.batches;
  std::function<Status(std::map<std::string, std::string>&)> mutate =
      [entries = std::move(entries)](std::map<std::string, std::string>& map) {
        for (const auto& [key, value] : entries) {
          map[key] = value;
        }
        return Status::Ok();
      };
  co_return co_await Mutate(std::move(mutate));
}

Task<Status> ReplicatedKvStore::CheckAndSet(std::string key,
                                            std::optional<std::string> expected,
                                            std::string value) {
  KvStoreStats* stats = &stats_;
  std::function<Status(std::map<std::string, std::string>&)> mutate =
      [key = std::move(key), expected = std::move(expected), value = std::move(value),
       stats](std::map<std::string, std::string>& map) {
        auto it = map.find(key);
        const bool matches =
            expected.has_value() ? (it != map.end() && it->second == *expected)
                                 : (it == map.end());
        if (!matches) {
          ++stats->cas_failures;
          return FailedPreconditionError("compare-and-set mismatch on " + key);
        }
        map[key] = value;
        return Status::Ok();
      };
  co_return co_await Mutate(std::move(mutate));
}

Task<Result<std::vector<std::string>>> ReplicatedKvStore::ListKeys() {
  Result<std::map<std::string, std::string>> map = co_await Snapshot();
  if (!map.ok()) {
    co_return map.status();
  }
  std::vector<std::string> keys;
  keys.reserve(map.value().size());
  for (const auto& [key, value] : map.value()) {
    keys.push_back(key);
  }
  co_return keys;
}

}  // namespace wvote
