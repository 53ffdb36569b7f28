//! Process resource readings from `/proc`, with the standard library only.

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields. Linux fixes
/// the user-visible tick (`USER_HZ`) at 100 on every architecture it
/// exports it for.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// CPU seconds (user + system) this process has consumed, including
/// threads that already exited.
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from the last ')'. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()
            .map_err(|e| format!("parse /proc/self/stat: {e}"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}
