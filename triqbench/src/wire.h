// triq_server as a child process, and a blocking line-protocol client.
#ifndef TRIQBENCH_WIRE_H_
#define TRIQBENCH_WIRE_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace triqbench {

/// One triq_server child. Start() returns once the server announced its
/// port; the destructor SIGKILLs and reaps a child still running, so no
/// process outlives the run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary args...` with stdout/stderr captured under `log_stem`
  /// (.out/.err) and waits up to `timeout_s` for "LISTENING <port>". A
  /// previous child of this object is killed first.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_stem, double timeout_s);

  int port() const { return port_; }

  /// True while the child has not exited (reaps it if it has).
  bool Alive();
  /// SIGKILLs the child if it still runs and reaps it.
  void Kill();

  /// After the child was reaped: the signal that ended it (0 if none),
  /// its exit code, and its peak resident set from wait4.
  int exit_signal() const { return exit_signal_; }
  int exit_code() const { return exit_code_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  /// Whether the child ended on its own (crash or exit) rather than by
  /// Kill().
  bool died_on_its_own() const { return died_on_its_own_; }

 private:
  void Reap(bool block);

  pid_t pid_ = -1;
  int port_ = 0;
  bool killed_ = false;
  bool died_on_its_own_ = false;
  int exit_signal_ = 0;
  int exit_code_ = 0;
  double peak_rss_mb_ = 0;
};

/// A blocking client connection. Every command is one line; the reply is
/// read up to its terminal "OK..." or "ERR..." line.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port);

  struct Reply {
    bool ok = false;                // terminal line starts with "OK"
    std::string last;               // the terminal line
    std::vector<std::string> rows;  // every line before it
    size_t bytes = 0;               // reply bytes including newlines
  };
  /// Sends `line` and reads its reply. False when the connection broke
  /// (the server closed it or died) before the reply was complete.
  bool Call(const std::string& line, Reply* reply);

 private:
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace triqbench

#endif  // TRIQBENCH_WIRE_H_
